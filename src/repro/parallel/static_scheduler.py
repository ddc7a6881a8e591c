"""Static loop scheduler (the OpenMP-like execution model).

The paper's OpenMP version parallelises the item loops with a conventional
``#pragma omp parallel for``, modelled as ``schedule(static)``: the item
range is cut into one contiguous chunk per thread.  Threads that receive
the heavy items finish late while the others idle at the loop barrier,
and nested parallel regions are serialised, so heavy items cannot be
split.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.parallel.simulator import ScheduleResult, Scheduler, SimTask
from repro.utils.validation import check_positive

__all__ = ["StaticScheduler"]


class StaticScheduler(Scheduler):
    """``schedule(static)`` contiguous partition with an end-of-loop barrier."""

    name = "openmp-static"
    #: Simulated seconds every thread spends in the implicit barrier at
    #: the end of the parallel loop.
    barrier_overhead = 5.0e-6
    #: Simulated seconds to fork/join the parallel region (paid once,
    #: independent of the thread count in this simple model).
    fork_overhead = 2.0e-5

    def schedule(self, tasks: Sequence[SimTask], n_cores: int) -> ScheduleResult:
        check_positive("n_cores", n_cores)
        durations = np.array([task.duration for task in tasks])
        busy = np.zeros(n_cores)
        if durations.size:
            # Contiguous equal-count chunks, exactly like schedule(static).
            boundaries = np.linspace(0, durations.size, n_cores + 1).astype(int)
            for core in range(n_cores):
                busy[core] = durations[boundaries[core]:boundaries[core + 1]].sum()
        makespan = float(busy.max()) + self.barrier_overhead + self.fork_overhead
        return ScheduleResult(
            n_cores=n_cores,
            makespan=makespan,
            core_busy=busy,
            n_tasks=len(tasks),
            overhead=self.barrier_overhead + self.fork_overhead,
            scheduler=self.name,
        )
