"""Shared-memory parallel substrate (simulated multicore machine).

The paper's multicore study (Section III, Figure 3) compares three ways of
running the per-item updates of one Gibbs sweep on a 12-core node:

* a **TBB** version — work-stealing scheduler with nested parallelism, so
  heavy items split into sub-tasks that idle cores can steal;
* an **OpenMP** version — static loop partitioning, no effective nested
  parallelism;
* a **GraphLab** version — a synchronous vertex-program engine that trades
  performance for programmability.

The reproduction environment has a single CPU core, so raw threading cannot
demonstrate scaling.  Instead this package provides:

* a **calibrated cost model** (:mod:`repro.parallel.cost_model`) that maps an
  item's rating count and update method to a kernel time, with coefficients
  fitted to *measured* timings of the real numpy kernels;
* a **discrete-event simulated machine** (:mod:`repro.parallel.simulator`)
  on which three *real scheduling algorithms*
  (:mod:`repro.parallel.work_stealing`, :mod:`repro.parallel.static_scheduler`,
  :mod:`repro.parallel.graph_engine`) place the real task multiset derived
  from the dataset's sparsity pattern.

Only *time* is simulated; the tasks, their sizes and the scheduling
decisions are all real, which is what lets the Figure 3 shape emerge from
mechanism rather than from hard-coded curves.
"""

from repro.parallel.cost_model import (
    UpdateCostModel,
    WorkloadModel,
    calibrate_cost_model,
    DEFAULT_COST_MODEL,
)
from repro.parallel.simulator import (
    SimTask,
    ScheduleResult,
    Scheduler,
    simulate_serial,
    tasks_from_degrees,
)
from repro.parallel.work_stealing import WorkStealingScheduler
from repro.parallel.static_scheduler import StaticScheduler, DynamicChunkScheduler
from repro.parallel.graph_engine import GraphEngineScheduler

__all__ = [
    "UpdateCostModel",
    "WorkloadModel",
    "calibrate_cost_model",
    "DEFAULT_COST_MODEL",
    "SimTask",
    "ScheduleResult",
    "Scheduler",
    "simulate_serial",
    "tasks_from_degrees",
    "WorkStealingScheduler",
    "StaticScheduler",
    "DynamicChunkScheduler",
    "GraphEngineScheduler",
]
