"""End-to-end speed-up summary (conclusion of the paper).

The paper's conclusion reports that the full drug-discovery run on the
industrial ChEMBL-scale dataset went from **15 days** with the initial
(single-threaded Julia) implementation to **30 minutes** with the
distributed implementation — a ~720x end-to-end speed-up.

This driver models that pipeline with the library's own components:

* the "initial" implementation — one core, no hybrid kernel selection
  (everything uses the serial Cholesky), no cache benefit;
* the single-node multicore implementation — work stealing over one node's
  cores with the hybrid policy;
* the distributed implementation — the Figure 4 machine model at a chosen
  node count.

The absolute times are modelled, not measured; the quantity being
reproduced is the *relative* speed-up ladder and its order of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.bench.fig4_strong_scaling import bluegene_like_config
from repro.core.updates import UpdateMethod
from repro.datasets.chembl import ChemblLikeConfig, make_chembl_like
from repro.distributed.scaling import ScalingConfig, strong_scaling_study
from repro.parallel.cost_model import DEFAULT_COST_MODEL
from repro.parallel.sweep import multicore_thread_sweep
from repro.sparse.csr import RatingMatrix
from repro.utils.tables import Table

__all__ = ["SpeedupSummaryResult", "run_speedup_summary"]


@dataclass
class SpeedupSummaryResult:
    """Modelled end-to-end times and speed-ups for one training campaign."""

    n_iterations: int
    times_seconds: Dict[str, float]
    baseline_name: str = "single-core (initial implementation)"

    def speedups(self) -> Dict[str, float]:
        baseline = self.times_seconds[self.baseline_name]
        return {name: baseline / seconds
                for name, seconds in self.times_seconds.items()}

    def to_table(self) -> Table:
        table = Table(
            ["implementation", "modelled time (hours)", "speed-up"],
            title="End-to-end training campaign (paper: 15 days -> 30 minutes)",
        )
        speedups = self.speedups()
        for name, seconds in self.times_seconds.items():
            table.add_row(name, seconds / 3600.0, speedups[name])
        return table


def run_speedup_summary(
    ratings: RatingMatrix | None = None,
    chembl_scale: float = 50.0,
    n_iterations: int = 100,
    distributed_nodes: int = 128,
    num_latent: int = 64,
    config: Optional[ScalingConfig] = None,
    seed: int = 11,
) -> SpeedupSummaryResult:
    """Model the 15-days-to-30-minutes speed-up ladder on a ChEMBL-like workload."""
    if ratings is None:
        ratings = make_chembl_like(ChemblLikeConfig(scale=chembl_scale, seed=seed)).ratings
    config = config or bluegene_like_config(num_latent=num_latent)

    # Initial implementation: one core, serial Cholesky for everything.
    degrees = np.concatenate([ratings.movie_degrees(), ratings.user_degrees()])
    per_item = np.asarray(DEFAULT_COST_MODEL.cost(
        degrees, UpdateMethod.SERIAL_CHOLESKY, num_latent))
    # An interpreted (Julia-prototype-like) implementation carries a large
    # constant factor over the tuned kernels; 30x is a conservative stand-in.
    interpreter_penalty = 30.0
    single_core = float(per_item.sum()) * interpreter_penalty * n_iterations

    # Single node, all cores, hybrid kernels, work stealing.
    sweep = multicore_thread_sweep(
        ratings, num_latent=num_latent,
        thread_counts=(config.cluster.cores_per_node,))
    items_per_iteration = ratings.n_users + ratings.n_movies
    single_node = (items_per_iteration / sweep.throughput["TBB"][0]) * n_iterations

    # Distributed: the Figure 4 machine model at the requested node count.
    scaling = strong_scaling_study(ratings, node_counts=(1, distributed_nodes),
                                   config=config)
    distributed = scaling.point(distributed_nodes).iteration_time * n_iterations

    times = {
        "single-core (initial implementation)": single_core,
        "single node, multicore (TBB-like)": single_node,
        f"distributed ({distributed_nodes} nodes)": distributed,
    }
    return SpeedupSummaryResult(n_iterations=n_iterations, times_seconds=times)
