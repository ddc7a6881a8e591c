"""Synchronous vertex-engine scheduler (the GraphLab-like execution model).

GraphLab expresses BPMF as vertex programs on the bipartite user–movie
graph: updating a movie is a gather over its rated-by edges, an apply, and
a scatter that signals neighbours.  The engine gives programmer
productivity but pays for it with

* a per-update engine overhead (scheduling, locking of the vertex and its
  neighbourhood, copying gather results), and
* synchronous supersteps — every vertex in a phase must finish before the
  next phase starts,
* hash-partitioned vertex ownership with no notion of per-vertex work,
  hence no load balancing beyond vertex count.

The paper uses GraphLab as the "state of the art graph-processing"
baseline that its hand-tuned implementations beat (Figure 3); this class
reproduces that position mechanistically with an engine-overhead factor and
per-update fixed cost applied on top of the same task durations the other
schedulers see.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.parallel.simulator import ScheduleResult, Scheduler, SimTask
from repro.utils.validation import check_positive

__all__ = ["GraphEngineScheduler"]


class GraphEngineScheduler(Scheduler):
    """Synchronous gather-apply-scatter engine over hash-partitioned vertices."""

    name = "graphlab-sync"
    #: Multiplier on the raw kernel time accounting for the gather/apply/
    #: scatter decomposition and the extra data movement it implies.
    engine_overhead_factor = 2.5
    #: Fixed simulated seconds of scheduler + locking work per update.
    per_update_overhead = 6.0e-5
    #: Per-update cost per extra core (cache-line and lock contention on
    #: the shared scheduler state): ``lock_contention * (n_cores - 1)``.
    lock_contention = 1.5e-6
    #: Cost of the end-of-superstep synchronisation barrier.
    barrier_overhead = 1.0e-4

    def schedule(self, tasks: Sequence[SimTask], n_cores: int) -> ScheduleResult:
        check_positive("n_cores", n_cores)
        per_update_cost = (self.per_update_overhead
                           + self.lock_contention * (n_cores - 1))
        durations = np.array([
            task.duration * self.engine_overhead_factor + per_update_cost
            for task in tasks
        ])
        busy = np.zeros(n_cores)
        if durations.size:
            # Hash partitioning: vertices are assigned to cores by id modulo
            # core count — balanced by count, oblivious to per-vertex work.
            owners = np.arange(durations.size) % n_cores
            np.add.at(busy, owners, durations)
        makespan = float(busy.max()) + self.barrier_overhead
        return ScheduleResult(
            n_cores=n_cores,
            makespan=makespan,
            core_busy=busy,
            n_tasks=len(tasks),
            overhead=float(per_update_cost * len(tasks) + self.barrier_overhead),
            scheduler=self.name,
        )
