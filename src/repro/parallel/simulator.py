"""Discrete-event machinery shared by the simulated schedulers.

A *task* is one item update (or one sub-task of a heavy item split by the
hybrid policy).  A *scheduler* places tasks on ``n_cores`` simulated cores
and reports the resulting makespan and per-core utilisation.  The task
durations come from the calibrated cost model and the dataset's real degree
sequence, so scheduling behaviour (imbalance, stealing, barriers) is
mechanistic.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.parallel.cost_model import DEFAULT_COST_MODEL, UpdateCostModel
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "SimTask",
    "ScheduleResult",
    "Scheduler",
    "CoreClock",
    "simulate_serial",
    "tasks_from_degrees",
]


@dataclass(frozen=True)
class SimTask:
    """One schedulable unit of work.

    ``subtask_durations`` is non-empty when the hybrid policy decided this
    item is heavy enough to split (parallel Cholesky): schedulers that
    support nested parallelism may place the sub-tasks on different cores,
    schedulers that do not must execute ``duration`` on a single core.
    """

    task_id: int
    duration: float
    subtask_durations: tuple = ()
    tag: str = ""

    def __post_init__(self):
        if self.duration < 0:
            raise ValidationError(f"task {self.task_id} has negative duration")
        if any(d < 0 for d in self.subtask_durations):
            raise ValidationError(f"task {self.task_id} has a negative sub-task")

    @property
    def splittable(self) -> bool:
        return len(self.subtask_durations) > 1

    @property
    def split_total(self) -> float:
        """Total work when executed as sub-tasks (>= duration: split overhead)."""
        return float(sum(self.subtask_durations)) if self.subtask_durations else self.duration


@dataclass
class ScheduleResult:
    """Outcome of placing a task set on a simulated machine."""

    n_cores: int
    makespan: float
    core_busy: np.ndarray
    n_tasks: int
    n_steals: int = 0
    overhead: float = 0.0
    scheduler: str = ""

    @property
    def total_work(self) -> float:
        """Sum of busy time over all cores (excludes idle waiting)."""
        return float(self.core_busy.sum())

    @property
    def utilization(self) -> float:
        """Fraction of core-seconds spent busy, in [0, 1]."""
        if self.makespan <= 0:
            return 1.0
        return float(self.core_busy.sum() / (self.n_cores * self.makespan))

    @property
    def imbalance(self) -> float:
        """Max over mean core busy time (1.0 = perfectly balanced)."""
        mean = self.core_busy.mean()
        if mean <= 0:
            return 1.0
        return float(self.core_busy.max() / mean)

    def throughput(self, n_items: int | None = None) -> float:
        """Item updates per simulated second (Figure 3/4's y-axis)."""
        items = self.n_tasks if n_items is None else n_items
        if self.makespan <= 0:
            return float("inf")
        return items / self.makespan


class CoreClock:
    """Per-core simulated clocks with an event heap ordered by free time."""

    def __init__(self, n_cores: int):
        check_positive("n_cores", n_cores)
        self.n_cores = n_cores
        self.free_at = np.zeros(n_cores)
        self.busy = np.zeros(n_cores)
        self._heap: List[tuple[float, int]] = [(0.0, core) for core in range(n_cores)]
        heapq.heapify(self._heap)

    def next_free(self) -> tuple[float, int]:
        """Pop the (time, core) pair that becomes free earliest."""
        return heapq.heappop(self._heap)

    def run(self, core: int, start: float, duration: float) -> float:
        """Execute ``duration`` seconds on ``core`` starting at ``start``."""
        end = start + duration
        self.free_at[core] = end
        self.busy[core] += duration
        heapq.heappush(self._heap, (end, core))
        return end

    def park(self, core: int, time: float) -> None:
        """Mark a core idle at ``time`` without re-queueing it."""
        self.free_at[core] = time

    @property
    def makespan(self) -> float:
        return float(self.free_at.max())


class Scheduler(abc.ABC):
    """Interface of the simulated shared-memory schedulers."""

    name: str = "scheduler"

    @abc.abstractmethod
    def schedule(self, tasks: Sequence[SimTask], n_cores: int) -> ScheduleResult:
        """Place ``tasks`` on ``n_cores`` cores and return the timing outcome."""

    def throughput(self, tasks: Sequence[SimTask], n_cores: int) -> float:
        """Convenience: items per second for this task set on ``n_cores`` cores."""
        return self.schedule(tasks, n_cores).throughput()


def simulate_serial(tasks: Iterable[SimTask]) -> ScheduleResult:
    """Reference single-core execution (sum of unsplit durations)."""
    tasks = list(tasks)
    total = float(sum(t.duration for t in tasks))
    return ScheduleResult(
        n_cores=1,
        makespan=total,
        core_busy=np.array([total]),
        n_tasks=len(tasks),
        scheduler="serial",
    )


def tasks_from_degrees(
    degrees: Sequence[int] | np.ndarray,
    num_latent: int,
    cost_model: UpdateCostModel | None = None,
    policy: HybridUpdatePolicy | None = None,
    workers_hint: int = 4,
    tag: str = "",
    id_offset: int = 0,
) -> List[SimTask]:
    """Turn a degree sequence (ratings per item) into simulated tasks.

    The hybrid policy chooses each item's update method; heavy items get the
    per-block sub-task durations the work-stealing scheduler can exploit.
    ``duration`` is always the *serial* execution time of the chosen method
    (what a scheduler without nested parallelism pays).
    """
    cost_model = cost_model or DEFAULT_COST_MODEL
    policy = policy or HybridUpdatePolicy()
    degrees = np.asarray(degrees, dtype=np.int64)
    tasks: List[SimTask] = []
    for index, degree in enumerate(degrees):
        n = int(degree)
        method = policy.choose(n, num_latent)
        serial_duration = float(cost_model.cost(
            n, method if method is not UpdateMethod.PARALLEL_CHOLESKY
            else UpdateMethod.SERIAL_CHOLESKY, num_latent))
        subtasks: tuple = ()
        if method is UpdateMethod.PARALLEL_CHOLESKY:
            n_sub = policy.n_subtasks(n)
            # Gram-block sub-tasks: each processes ~n/n_sub ratings; the last
            # sub-task also carries the factorisation + reduction cost.
            per_block = float(cost_model.chol_per_rating
                              * (num_latent / cost_model.k_ref) ** 2 * n / n_sub)
            tail = float(cost_model.cost(0, UpdateMethod.PARALLEL_CHOLESKY,
                                         num_latent, workers=1))
            subtasks = tuple([per_block] * (n_sub - 1) + [per_block + tail])
        tasks.append(SimTask(
            task_id=id_offset + index,
            duration=serial_duration,
            subtask_durations=subtasks,
            tag=tag or method.value,
        ))
    return tasks
