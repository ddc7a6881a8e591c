"""Unit tests for the simulated multicore machine and its schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.updates import HybridUpdatePolicy
from repro.parallel.graph_engine import GraphEngineScheduler
from repro.parallel.simulator import (
    CoreClock,
    ScheduleResult,
    SimTask,
    tasks_from_degrees,
)
from repro.parallel.static_scheduler import StaticScheduler
from repro.utils.thread_backend import ThreadPoolBackend
from repro.parallel.work_stealing import WorkStealingScheduler
from repro.utils.validation import ValidationError


def make_tasks(durations, splittable=None):
    """Helper: build SimTasks from plain durations."""
    tasks = []
    for i, duration in enumerate(durations):
        subtasks = ()
        if splittable and i in splittable:
            subtasks = tuple([duration / 4] * 4)
        tasks.append(SimTask(task_id=i, duration=duration,
                             subtask_durations=subtasks))
    return tasks


# Explicit ids keep each scheduler's test ids stable as the list changes.
ALL_SCHEDULERS = [
    pytest.param("work-stealing", WorkStealingScheduler(),
                 id="work-stealing-scheduler0"),
    pytest.param("static", StaticScheduler(), id="static-scheduler1"),
    pytest.param("graph", GraphEngineScheduler(), id="graph-scheduler3"),
]


class TestSimTask:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            SimTask(task_id=0, duration=-1.0)
        with pytest.raises(ValidationError):
            SimTask(task_id=0, duration=1.0, subtask_durations=(0.5, -0.1))

    def test_splittable_flag(self):
        assert not SimTask(0, 1.0).splittable
        assert not SimTask(0, 1.0, subtask_durations=(1.0,)).splittable
        assert SimTask(0, 1.0, subtask_durations=(0.5, 0.5)).splittable

    def test_split_total(self):
        assert SimTask(0, 1.0).split_total == 1.0
        assert SimTask(0, 1.0, subtask_durations=(0.6, 0.6)).split_total == pytest.approx(1.2)


class TestCoreClock:
    def test_tracks_busy_time_and_makespan(self):
        clock = CoreClock(2)
        t, core = clock.next_free()
        clock.run(core, t, 3.0)
        t, core = clock.next_free()
        clock.run(core, t, 1.0)
        assert clock.makespan == pytest.approx(3.0)
        assert clock.busy.sum() == pytest.approx(4.0)

    def test_invalid_core_count(self):
        with pytest.raises(Exception):
            CoreClock(0)


class TestScheduleResultProperties:
    def test_utilization_and_imbalance(self):
        result = ScheduleResult(n_cores=2, makespan=10.0,
                                core_busy=np.array([10.0, 5.0]), n_tasks=3)
        assert result.utilization == pytest.approx(0.75)
        assert result.imbalance == pytest.approx(10.0 / 7.5)
        assert result.total_work == pytest.approx(15.0)

    def test_degenerate_zero_makespan(self):
        result = ScheduleResult(n_cores=2, makespan=0.0,
                                core_busy=np.zeros(2), n_tasks=0)
        assert result.utilization == 1.0
        assert result.throughput(10) == float("inf")


@pytest.mark.parametrize("name,scheduler", ALL_SCHEDULERS)
class TestSchedulerContracts:
    """Invariants every scheduler must satisfy."""

    def test_all_work_is_executed(self, name, scheduler, rng):
        durations = rng.uniform(0.1, 1.0, size=50)
        tasks = make_tasks(durations)
        result = scheduler.schedule(tasks, 4)
        assert result.n_tasks == 50
        # Busy time covers at least the raw work (overheads may add to it).
        assert result.core_busy.sum() >= durations.sum() - 1e-9

    def test_makespan_at_least_critical_path(self, name, scheduler, rng):
        durations = rng.uniform(0.1, 1.0, size=30)
        tasks = make_tasks(durations)
        result = scheduler.schedule(tasks, 4)
        assert result.makespan >= durations.max() - 1e-9
        assert result.makespan >= durations.sum() / 4 - 1e-9

    def test_single_core_equals_serial_work(self, name, scheduler, rng):
        durations = rng.uniform(0.1, 1.0, size=20)
        tasks = make_tasks(durations)
        result = scheduler.schedule(tasks, 1)
        # Within engine overheads, a single core just runs everything.
        assert result.makespan >= durations.sum() - 1e-9

    def test_more_cores_never_hurt_much(self, name, scheduler, rng):
        durations = rng.uniform(0.1, 1.0, size=64)
        tasks = make_tasks(durations)
        t2 = scheduler.schedule(tasks, 2).makespan
        t8 = scheduler.schedule(tasks, 8).makespan
        assert t8 <= t2 * 1.05

    def test_empty_task_list(self, name, scheduler):
        result = scheduler.schedule([], 4)
        assert result.n_tasks == 0
        assert result.makespan >= 0.0

    def test_invalid_core_count(self, name, scheduler):
        with pytest.raises(Exception):
            scheduler.schedule(make_tasks([1.0]), 0)


class TestWorkStealingSpecifics:
    def test_balances_skewed_workload_better_than_static(self, rng):
        # One huge task plus many small ones, in an adversarial order for
        # contiguous chunking.
        durations = np.concatenate([[50.0], rng.uniform(0.5, 1.5, size=63)])
        tasks = make_tasks(durations, splittable={0})
        stealing = WorkStealingScheduler().schedule(tasks, 8)
        static = StaticScheduler().schedule(tasks, 8)
        assert stealing.makespan < static.makespan

    def test_nested_parallelism_splits_heavy_tasks(self):
        """Without nested parallelism a heavy item is one task: the same
        task list without sub-tasks."""
        scheduler = WorkStealingScheduler()
        with_nesting = scheduler.schedule(
            make_tasks([40.0, 1.0, 1.0, 1.0], splittable={0}), 4)
        without_nesting = scheduler.schedule(
            make_tasks([40.0, 1.0, 1.0, 1.0]), 4)
        assert with_nesting.makespan < without_nesting.makespan
        assert without_nesting.makespan >= 40.0

    def test_steals_are_counted_and_rebalance(self):
        # Round-robin seeding puts every heavy task on core 0; the other
        # cores run out of their own work and must steal.
        durations = [10.0, 0.1, 0.1, 0.1] * 16
        result = WorkStealingScheduler().schedule(make_tasks(durations), 4)
        assert result.n_steals > 0
        assert result.overhead > 0
        # Stealing keeps the makespan well below the all-on-one-core bound.
        assert result.makespan < 0.6 * (10.0 * 16)

    def test_near_perfect_speedup_on_uniform_tasks(self):
        tasks = make_tasks([1.0] * 128)
        result = WorkStealingScheduler().schedule(tasks, 8)
        assert result.makespan == pytest.approx(16.0, rel=0.05)


class TestStaticSchedulerSpecifics:
    def test_contiguous_chunking_suffers_from_clustered_heavy_items(self):
        # All heavy items at the front of the range -> one unlucky thread.
        heavy_front = make_tasks([10.0] * 8 + [0.1] * 56)
        balanced = make_tasks([10.0, 0.1] * 8 + [0.1] * 48)
        front_result = StaticScheduler().schedule(heavy_front, 8)
        spread_result = StaticScheduler().schedule(balanced, 8)
        assert front_result.makespan > spread_result.makespan


class TestGraphEngineSpecifics:
    def test_engine_overhead_slows_it_down(self, rng):
        durations = rng.uniform(0.5, 1.0, size=64)
        tasks = make_tasks(durations)
        engine = GraphEngineScheduler().schedule(tasks, 8)
        stealing = WorkStealingScheduler().schedule(tasks, 8)
        assert engine.makespan > stealing.makespan

    def test_lock_contention_grows_with_cores(self):
        tasks = make_tasks([0.001] * 100)
        engine = GraphEngineScheduler()
        few = engine.schedule(tasks, 2)
        many = engine.schedule(tasks, 16)
        # Per-update cost grows with cores, so total busy work grows too.
        assert many.total_work > few.total_work


class TestTasksFromDegrees:
    def test_heavy_items_get_subtasks(self):
        policy = HybridUpdatePolicy(parallel_threshold=100, block_grain=50)
        tasks = tasks_from_degrees([10, 50, 500], num_latent=8, policy=policy)
        assert not tasks[0].splittable
        assert not tasks[1].splittable
        assert tasks[2].splittable
        assert len(tasks[2].subtask_durations) == policy.n_subtasks(500)

    def test_durations_increase_with_degree(self):
        tasks = tasks_from_degrees([1, 10, 100], num_latent=8)
        durations = [task.duration for task in tasks]
        assert durations == sorted(durations)

    def test_tags_and_ids(self):
        tasks = tasks_from_degrees([1, 2], num_latent=4, tag="movies", id_offset=10)
        assert tasks[0].task_id == 10 and tasks[1].task_id == 11
        assert tasks[0].tag == "movies"


class TestThreadPoolBackend:
    def test_serial_fallback_processes_all(self):
        seen = []
        backend = ThreadPoolBackend(n_threads=1)
        count = backend.map_items(seen.append, range(20))
        assert count == 20
        assert seen == list(range(20))

    def test_threaded_processes_all_exactly_once(self):
        import threading
        lock = threading.Lock()
        seen = []

        def record(item):
            with lock:
                seen.append(item)

        backend = ThreadPoolBackend(n_threads=4, chunk_size=3)
        count = backend.map_items(record, range(100))
        assert count == 100
        assert sorted(seen) == list(range(100))

    def test_exceptions_propagate(self):
        backend = ThreadPoolBackend(n_threads=2, chunk_size=1)

        def boom(item):
            if item == 5:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            backend.map_items(boom, range(10))

    def test_invalid_configuration(self):
        with pytest.raises(Exception):
            ThreadPoolBackend(n_threads=0)
