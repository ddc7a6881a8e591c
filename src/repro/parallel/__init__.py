"""The modelled multicore node (Section III, Figure 3).

The paper's multicore study compares three ways of running the per-item
updates of one Gibbs sweep on a 12-core node:

* a **TBB** version — work-stealing scheduler with nested parallelism, so
  heavy items split into sub-tasks that idle cores can steal;
* an **OpenMP** version — static loop partitioning, no effective nested
  parallelism;
* a **GraphLab** version — a synchronous vertex-program engine that trades
  performance for programmability.

The functionally parallel sampler is the one Gibbs sampler with
``SamplerOptions(n_threads=...)``; this package is its performance model:

* :mod:`repro.parallel.cost_model` — the kernel cost model that maps an
  item's rating count and update method to a kernel time;
* :mod:`repro.parallel.simulator` — the discrete-event simulated machine
  and the task sets derived from a degree sequence;
* :mod:`repro.parallel.work_stealing`, :mod:`repro.parallel.static_scheduler`,
  :mod:`repro.parallel.graph_engine` — the three *real scheduling
  algorithms* that place those tasks;
* :mod:`repro.parallel.sweep` — one sweep's tasks on every scheduler and
  thread count: Figure 3's throughput-vs-threads curves.

Only *time* is simulated; the tasks, their sizes and the scheduling
decisions are all real, which is what lets the Figure 3 shape emerge from
mechanism rather than from hard-coded curves.  The cluster half of the
model (Figures 4 and 5) is :mod:`repro.distributed.scaling`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "UpdateCostModel",
    "DEFAULT_COST_MODEL",
    "SimTask",
    "ScheduleResult",
    "Scheduler",
    "tasks_from_degrees",
    "WorkStealingScheduler",
    "StaticScheduler",
    "GraphEngineScheduler",
    "ThreadSweepResult",
    "default_schedulers",
    "multicore_thread_sweep",
    "sweep_tasks",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.parallel.cost_model": ("UpdateCostModel", "DEFAULT_COST_MODEL"),
    "repro.parallel.simulator": ("SimTask", "ScheduleResult", "Scheduler",
                                 "tasks_from_degrees"),
    "repro.parallel.work_stealing": ("WorkStealingScheduler",),
    "repro.parallel.static_scheduler": ("StaticScheduler",),
    "repro.parallel.graph_engine": ("GraphEngineScheduler",),
    "repro.parallel.sweep": ("ThreadSweepResult", "default_schedulers",
                             "multicore_thread_sweep", "sweep_tasks"),
})
