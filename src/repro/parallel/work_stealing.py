"""Work-stealing scheduler (the TBB-like execution model).

Section III of the paper attributes the TBB version's win to two features:

* a **work-stealing scheduler** that rebalances dynamically when some
  threads finish their share early, and
* **nested parallelism**, which lets the parallel-Cholesky sub-tasks of a
  heavy item run on whatever cores happen to be idle.

Both features are modelled mechanistically: every core owns a deque seeded
round-robin with the tasks (mirroring how a parallel_for splits the item
range), cores pop work LIFO from their own deque and steal FIFO from the
most loaded victim when empty, paying a per-steal overhead; splittable
tasks are expanded into their sub-tasks, which land on the executing core's
deque and are therefore themselves stealable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence

import numpy as np

from repro.parallel.simulator import CoreClock, ScheduleResult, Scheduler, SimTask
from repro.utils.validation import check_positive

__all__ = ["WorkStealingScheduler"]


@dataclass
class _Unit:
    """A directly executable unit (task or sub-task) in a core's deque."""

    duration: float
    origin: int  # core whose deque originally held the parent task


class WorkStealingScheduler(Scheduler):
    """TBB-like work stealing with nested parallelism.

    A task without sub-tasks runs whole on one core, which is how "TBB
    without nested parallelism" is modelled.
    """

    name = "work-stealing"
    #: Simulated seconds a thief spends acquiring a task from another
    #: core's deque (synchronisation cost).
    steal_overhead = 1.0e-6
    #: Simulated seconds charged when an owner runs a unit it seeded.
    spawn_overhead = 2.0e-7

    def schedule(self, tasks: Sequence[SimTask], n_cores: int) -> ScheduleResult:
        check_positive("n_cores", n_cores)
        clock = CoreClock(n_cores)
        deques: List[Deque[_Unit]] = [deque() for _ in range(n_cores)]

        # Round-robin seeding emulates the recursive range splitting of a
        # parallel_for: every core starts with an equal *count* of items
        # (not an equal amount of work — that is what stealing fixes).
        for index, task in enumerate(tasks):
            home = index % n_cores
            if task.splittable:
                for sub in task.subtask_durations:
                    deques[home].append(_Unit(float(sub), home))
            else:
                deques[home].append(_Unit(task.duration, home))

        n_steals = 0
        overhead = 0.0
        pending = sum(len(d) for d in deques)
        # Event loop: the earliest-free core picks its next unit.
        while pending:
            now, core = clock.next_free()
            own = deques[core]
            if own:
                unit = own.pop()  # LIFO on the owner's side
                duration = unit.duration
            else:
                victim = self._pick_victim(deques, core)
                if victim is None:
                    # Nothing left anywhere for this core; park it and let
                    # the remaining cores drain their deques.
                    clock.park(core, now)
                    continue
                unit = deques[victim].popleft()  # FIFO from the victim
                duration = unit.duration + self.steal_overhead
                overhead += self.steal_overhead
                n_steals += 1
            if unit.duration and self.spawn_overhead and unit.origin == core:
                # Charge the (tiny) spawn cost when the owner first touches
                # work it seeded itself; a constant per executed unit.
                duration += self.spawn_overhead
                overhead += self.spawn_overhead
            clock.run(core, now, duration)
            pending -= 1

        return ScheduleResult(
            n_cores=n_cores,
            makespan=clock.makespan,
            core_busy=clock.busy.copy(),
            n_tasks=len(tasks),
            n_steals=n_steals,
            overhead=overhead,
            scheduler=self.name,
        )

    @staticmethod
    def _pick_victim(deques: List[Deque[_Unit]], thief: int) -> int | None:
        """Steal from the core with the most queued work (best-fit victim)."""
        best = None
        best_len = 0
        for core, dq in enumerate(deques):
            if core != thief and len(dq) > best_len:
                best, best_len = core, len(dq)
        return best
