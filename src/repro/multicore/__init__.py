"""Multi-core BPMF (Section III of the paper).

The functionally parallel sampler is the one Gibbs sampler with
``SamplerOptions(n_threads=...)``: within a phase every item's conditional
depends only on the other class's frozen factors, so the engine's units
run on a thread pool and the chain stays bit-for-bit the sequential one.
This package keeps the performance study:

* :mod:`repro.multicore.tasks` — the per-item task sets of one sweep;
* :mod:`repro.multicore.sweep` — those tasks placed on the simulated
  multicore machine by the work-stealing (TBB-like), static (OpenMP-like)
  and vertex-engine (GraphLab-like) schedulers to regenerate Figure 3's
  throughput-vs-threads curves.
"""

from repro.multicore.tasks import phase_tasks, sweep_tasks
from repro.multicore.sweep import (
    ThreadSweepResult,
    multicore_thread_sweep,
    default_schedulers,
)

__all__ = [
    "phase_tasks",
    "sweep_tasks",
    "ThreadSweepResult",
    "multicore_thread_sweep",
    "default_schedulers",
]
