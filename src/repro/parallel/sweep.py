"""Thread-count sweep on the simulated multicore machine (Figure 3).

One Gibbs sweep is two parallel phases — update all movies, then all
users — separated by the (serial, cheap) hyperparameter draws.  Each
phase's tasks come from the dataset's *real* degree sequence, so load
imbalance is inherited from the data, not synthesised.  For every
scheduler (TBB-like work stealing, OpenMP-like static loop, GraphLab-like
vertex engine) and every thread count both phases are scheduled and the
resulting throughput in item updates per second is reported.  This is the
data behind Figure 3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.updates import HybridUpdatePolicy
from repro.parallel.graph_engine import GraphEngineScheduler
from repro.parallel.simulator import Scheduler, SimTask, tasks_from_degrees
from repro.parallel.static_scheduler import StaticScheduler
from repro.parallel.work_stealing import WorkStealingScheduler
from repro.sparse.csr import RatingMatrix
from repro.utils.tables import Table
from repro.utils.validation import check_positive

__all__ = ["ThreadSweepResult", "default_schedulers", "multicore_thread_sweep",
           "sweep_tasks"]

#: Simulated seconds per sweep spent in the serial hyperparameter draws
#: (charged identically to every scheduler).
HYPER_OVERHEAD = 2.0e-3


def sweep_tasks(
    ratings: RatingMatrix,
    num_latent: int,
    policy: HybridUpdatePolicy | None = None,
) -> Tuple[List[SimTask], List[SimTask]]:
    """Both phases of one sweep: ``(movie_tasks, user_tasks)``.

    Task ids run over the movies first, then the users, so they do not
    collide across phases.
    """
    return (
        tasks_from_degrees(ratings.movie_degrees(), num_latent, policy=policy,
                           tag="movies"),
        tasks_from_degrees(ratings.user_degrees(), num_latent, policy=policy,
                           tag="users", id_offset=ratings.n_movies),
    )


def default_schedulers() -> Dict[str, Scheduler]:
    """The three execution models compared in Figure 3, keyed by paper name."""
    return {
        "TBB": WorkStealingScheduler(),
        "OpenMP": StaticScheduler(),
        "GraphLab": GraphEngineScheduler(),
    }


@dataclass
class ThreadSweepResult:
    """Throughput (item updates / second) per scheduler and thread count."""

    thread_counts: List[int]
    throughput: Dict[str, List[float]]

    def speedup(self, scheduler: str) -> List[float]:
        """Throughput relative to the same scheduler on one thread."""
        series = self.throughput[scheduler]
        base = series[0]
        return [value / base for value in series]

    def to_table(self) -> Table:
        """Figure 3 as a text table (threads x scheduler throughput)."""
        headers = ["threads"] + [f"{name} (items/s)" for name in self.throughput]
        table = Table(headers, title="Figure 3 — multicore BPMF throughput")
        for row_index, threads in enumerate(self.thread_counts):
            cells: List[object] = [threads]
            for name in self.throughput:
                cells.append(self.throughput[name][row_index])
            table.add_row(*cells)
        return table


def multicore_thread_sweep(
    ratings: RatingMatrix,
    num_latent: int = 32,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16),
    schedulers: Dict[str, Scheduler] | None = None,
    policy: HybridUpdatePolicy | None = None,
) -> ThreadSweepResult:
    """Run the Figure 3 experiment.

    Parameters
    ----------
    ratings:
        Workload (the paper uses the ChEMBL dataset here).
    num_latent:
        Latent dimension used for kernel-cost estimation.
    thread_counts:
        X-axis of the figure.
    schedulers:
        Mapping of display name to scheduler; defaults to the paper's three.
    policy:
        Hybrid update policy choosing each item's kernel.
    """
    for count in thread_counts:
        check_positive("thread_counts entry", count)
    schedulers = schedulers or default_schedulers()
    movie_tasks, user_tasks = sweep_tasks(ratings, num_latent, policy)
    n_items = len(movie_tasks) + len(user_tasks)

    throughput: Dict[str, List[float]] = {name: [] for name in schedulers}
    for name, scheduler in schedulers.items():
        for threads in thread_counts:
            sweep_time = (scheduler.schedule(movie_tasks, threads).makespan
                          + scheduler.schedule(user_tasks, threads).makespan
                          + HYPER_OVERHEAD)
            throughput[name].append(n_items / sweep_time)

    return ThreadSweepResult(thread_counts=list(thread_counts),
                             throughput=throughput)
