"""Figure 3 — multicore throughput versus thread count on ChEMBL.

Drives :func:`repro.parallel.sweep.multicore_thread_sweep` on a ChEMBL-like
workload with the paper's three execution models (TBB-like work stealing,
OpenMP-like static loop, GraphLab-like vertex engine) over 1–16 threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.datasets.chembl import ChemblLikeConfig, make_chembl_like
from repro.parallel.sweep import ThreadSweepResult, multicore_thread_sweep
from repro.sparse.csr import RatingMatrix
from repro.utils.tables import Table

__all__ = ["Fig3Result", "run_fig3"]

#: Thread counts on the x-axis (the paper's node has 12 cores / 24 threads;
#: the figure sweeps 1..16).
DEFAULT_THREADS = (1, 2, 4, 8, 16)


@dataclass
class Fig3Result:
    """Throughput per scheduler and thread count, plus derived speed-ups."""

    sweep: ThreadSweepResult
    dataset_shape: tuple
    dataset_nnz: int

    @property
    def thread_counts(self) -> List[int]:
        return self.sweep.thread_counts

    @property
    def throughput(self) -> Dict[str, List[float]]:
        return self.sweep.throughput

    def speedup(self, scheduler: str) -> List[float]:
        return self.sweep.speedup(scheduler)

    def to_table(self) -> Table:
        return self.sweep.to_table()


def run_fig3(
    ratings: RatingMatrix | None = None,
    chembl_scale: float = 50.0,
    num_latent: int = 32,
    thread_counts: Sequence[int] = DEFAULT_THREADS,
    seed: int = 11,
) -> Fig3Result:
    """Regenerate Figure 3's data.

    When ``ratings`` is not supplied a ChEMBL-like dataset at
    ``chembl_scale`` (default ~9 700 compounds x 115 targets, ~20 000
    activities) is generated — the same heavy-tailed target-popularity
    structure as the paper's ChEMBL subset, scaled down so the sweep runs
    in seconds.
    """
    if ratings is None:
        ratings = make_chembl_like(ChemblLikeConfig(scale=chembl_scale, seed=seed)).ratings
    sweep = multicore_thread_sweep(ratings, num_latent=num_latent,
                                   thread_counts=thread_counts)
    return Fig3Result(sweep=sweep, dataset_shape=ratings.shape,
                      dataset_nnz=ratings.nnz)
