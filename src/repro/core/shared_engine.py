"""Zero-copy shared-memory process backend for the batched update engine.

:class:`~repro.core.batch_engine.BatchedUpdateEngine` removed the
per-item interpreter overhead but still executes every stacked LAPACK pass
on one core.  This module maps the same degree-bucket decomposition across
*real processes*:

* the factor matrices, the pre-drawn phase noise and the bucket gather
  blocks (indices and rating values) live in
  :mod:`multiprocessing.shared_memory` segments, so workers operate on
  zero-copy views — the only per-phase copies are staging the current
  source/noise into the segments and reading the updated rows back;
* a persistent worker pool is spawned once (lazily, at the first shared
  phase) and reused across every sweep of a run; plan segments are
  registered with the workers once per axis and cached on both sides;
* small exact-degree buckets are fused into degree-padded super-buckets
  (:func:`repro.sparse.buckets.fuse_bucket_plan`), so per-task dispatch
  overhead is amortised over many items while each member bucket is still
  computed at its exact degree — the arithmetic, and therefore the sampled
  chain, is bit-identical to the single-process batched engine;
* super-buckets are assigned to workers with a deterministic
  longest-processing-time rule: the same phase always runs the same work
  on the same worker, independent of timing.

Combined with the canonical-order pre-drawn noise (item ``i`` always
consumes ``noise[i]``), every sampler that selects ``engine="shared"``
reproduces the sequential chain exactly.

Ownership and teardown: the engine owns every segment it creates and is a
context manager; ``close()`` stops the workers and unlinks all shared
memory, and the samplers call it in a ``finally`` so an exception (or
``KeyboardInterrupt``) mid-sweep cannot leak segments.  A closed engine is
restartable — the pool and segments are re-created lazily on next use.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import traceback
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.batch_engine import BatchedUpdateEngine
from repro.core.priors import GaussianPrior
from repro.core.updates import HybridUpdatePolicy
from repro.sparse.buckets import (
    DegreeBucket,
    SuperBucketPlan,
    cached_bucket_plan,
    fuse_bucket_plan,
)
from repro.sparse.csr import CompressedAxis
from repro.utils.environment import default_start_method
from repro.utils.validation import ValidationError, check_positive

__all__ = ["SharedMemoryUpdateEngine", "WorkerPool", "WorkerPoolError"]


class WorkerPoolError(RuntimeError):
    """A shared-memory worker failed or died mid-phase."""


# ---------------------------------------------------------------------------
# shared-memory segments
# ---------------------------------------------------------------------------

class _SharedBlock:
    """One owned shared-memory segment with an ndarray layout.

    Views are materialised on demand and must not be retained across
    ``destroy()``; the engine only ever uses them inside one staging or
    copy-back statement.
    """

    def __init__(self, shape: Tuple[int, ...], dtype):
        self.shape = tuple(int(extent) for extent in shape)
        self.dtype = np.dtype(dtype)
        n_bytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        self.shm = shared_memory.SharedMemory(create=True,
                                              size=max(n_bytes, 1))

    @property
    def name(self) -> str:
        return self.shm.name

    def view(self) -> np.ndarray:
        return np.ndarray(self.shape, dtype=self.dtype, buffer=self.shm.buf)

    def descriptor(self) -> Tuple[str, Tuple[int, ...], str]:
        return (self.shm.name, self.shape, self.dtype.str)

    def destroy(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a view outlived its phase
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _attach_segment(cache: Dict[str, shared_memory.SharedMemory], name: str,
                    untrack: bool) -> shared_memory.SharedMemory:
    """Attach (and cache) a segment by name on the worker side.

    With the ``spawn`` start method every worker runs its own resource
    tracker, which would unlink the segment when the worker exits — long
    before the owning process is done with it (bpo-38119).  Workers
    therefore unregister attached segments; the owner's tracker remains the
    single crash backstop.  Under ``fork`` the tracker is shared with the
    owner and registration is set-idempotent, so no unregister is needed.
    """
    segment = cache.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        if untrack:
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        cache[name] = segment
    return segment


def _segment_view(cache: Dict[str, shared_memory.SharedMemory],
                  descriptor: Tuple[str, Tuple[int, ...], str],
                  untrack: bool) -> np.ndarray:
    name, shape, dtype = descriptor
    segment = _attach_segment(cache, name, untrack)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """Lifecycle of a persistent process pool over per-worker task queues.

    Owns the machinery that must behave identically wherever a pool of
    shared-memory workers exists — spawning with the fork/spawn
    resource-tracker discipline, ordered stop/join/terminate teardown, and
    the response-collect loop with dead-worker detection and stale-message
    filtering.  Both the training engine
    (:class:`SharedMemoryUpdateEngine`) and the serving-cluster gateway
    (:class:`repro.serving.cluster.ShardedScorer`) run on this one
    implementation.

    ``worker_main`` is invoked in each child as
    ``worker_main(worker_id, untrack, *extra_args, task_queue,
    result_queue)``.  Workers respond with ``(kind, worker_id, sequence,
    payload...)`` tuples; sequence ``-1`` is the out-of-band channel for
    registration failures (a worker that cannot attach a segment it was
    handed), which :meth:`collect` surfaces as errors instead of silently
    discarding.
    """

    def __init__(self, n_workers: int, worker_main, extra_args: Tuple = (),
                 name_prefix: str = "repro-worker"):
        check_positive("n_workers", n_workers)
        self.n_workers = int(n_workers)
        self._worker_main = worker_main
        self._extra_args = tuple(extra_args)
        self._name_prefix = name_prefix
        self.start_method = default_start_method()
        self._context = multiprocessing.get_context(self.start_method)
        self.workers: List[Tuple] = []  # (Process, task_queue) pairs
        self._results = None
        # Health counters surfaced through owners' stats()/health frames.
        self.n_spawns = 0
        self.n_worker_deaths = 0
        self.n_registration_failures = 0

    @property
    def started(self) -> bool:
        return bool(self.workers)

    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return bool(self.workers) \
            and all(process.is_alive() for process, _ in self.workers)

    def ensure(self) -> bool:
        """Spawn the pool if needed; True when it spawned fresh.

        A pool with a dead worker (crash or external kill) is torn down
        and reported via :class:`WorkerPoolError` rather than computing a
        partial result; the caller's next use spawns a fresh pool.
        """
        if self.workers:
            if all(process.is_alive() for process, _ in self.workers):
                return False
            self.n_worker_deaths += sum(
                not process.is_alive() for process, _ in self.workers)
            self.stop()
            raise WorkerPoolError(
                f"a {self._name_prefix} worker died; the pool was torn "
                "down (the next use respawns it)")
        untrack = self.start_method != "fork"
        if self.start_method == "fork":
            # Start the resource tracker *before* forking: children then
            # inherit it, and their attach-time registrations land in the
            # parent's tracker (an idempotent set) instead of each child
            # spawning a private tracker that would report our unlinked
            # segments as leaks at exit.
            resource_tracker.ensure_running()
        self._results = self._context.Queue()
        for worker_id in range(self.n_workers):
            task_queue = self._context.Queue()
            process = self._context.Process(
                target=self._worker_main,
                args=(worker_id, untrack, *self._extra_args, task_queue,
                      self._results),
                daemon=True,
                name=f"{self._name_prefix}-{worker_id}",
            )
            process.start()
            self.workers.append((process, task_queue))
        self.n_spawns += 1
        return True

    def stop(self) -> None:
        """Stop every worker and close the queues (idempotent)."""
        for process, task_queue in self.workers:
            if process.is_alive():
                try:
                    task_queue.put(("stop",))
                except Exception:  # pragma: no cover - queue already broken
                    pass
        for process, task_queue in self.workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
            task_queue.close()
        if self._results is not None:
            self._results.close()
            self._results = None
        self.workers = []

    def stats(self) -> Dict[str, int]:
        """Pool health counters (spawns, deaths, registration failures).

        ``n_respawns`` counts pool rebuilds *after* the first spawn — each
        one means a dead worker (crash or kill) was detected and the pool
        recovered.  Owners merge these into their ``stats()`` so serving
        health endpoints can report pool churn.
        """
        return {
            "pool_workers": self.n_workers,
            "pool_spawns": self.n_spawns,
            "pool_respawns": max(0, self.n_spawns - 1),
            "pool_worker_deaths": self.n_worker_deaths,
            "pool_registration_failures": self.n_registration_failures,
        }

    def send(self, worker_id: int, message: Tuple) -> None:
        self.workers[worker_id][1].put(message)

    def broadcast(self, message: Tuple) -> None:
        """Send one message to every worker (no-op when not started)."""
        for _, task_queue in self.workers:
            task_queue.put(message)

    def collect(self, pending: Dict[int, None], sequence: int,
                label: str = "request") -> Dict[int, object]:
        """Await one response per pending worker; returns their payloads.

        Raises :class:`WorkerPoolError` when any worker reported an error
        (including out-of-band registration failures) or died mid-request;
        responses from aborted earlier sequences are discarded.
        """
        results: Dict[int, object] = {}
        errors: List[str] = []
        while pending:
            try:
                message = self._results.get(timeout=0.2)
            except queue_module.Empty:
                dead = [worker_id for worker_id in pending
                        if not self.workers[worker_id][0].is_alive()]
                for worker_id in dead:
                    pending.pop(worker_id, None)
                    self.n_worker_deaths += 1
                    errors.append(
                        f"worker {worker_id} died mid-{label} (exit code "
                        f"{self.workers[worker_id][0].exitcode})")
                continue
            kind, worker_id, msg_sequence = message[0], message[1], message[2]
            if msg_sequence == -1:
                # Registration failed on the worker: the root cause of
                # whatever this request is about to report.
                self.n_registration_failures += 1
                errors.append(f"worker {worker_id} (registration):\n"
                              f"{message[3]}")
                continue
            if msg_sequence != sequence:
                continue  # stale message from an aborted earlier request
            pending.pop(worker_id, None)
            if kind == "error":
                errors.append(f"worker {worker_id}:\n{message[3]}")
            else:
                results[worker_id] = message[3] if len(message) > 3 else None
        if errors:
            raise WorkerPoolError(
                f"shared-memory {label} failed:\n" + "\n".join(errors))
        return results


# ---------------------------------------------------------------------------
# the worker loop
# ---------------------------------------------------------------------------

def _worker_main(worker_id: int, untrack_attachments: bool,
                 policy: HybridUpdatePolicy, task_queue,
                 result_queue) -> None:
    """Execute plan/phase messages until a stop message arrives.

    The worker owns a private :class:`BatchedUpdateEngine` built with the
    parent's policy and packs its member buckets into blocks with
    the same routine, so the kernel is literally the same code (and the
    same per-item arithmetic) the single-process engine runs.
    """
    engine = BatchedUpdateEngine(policy=policy)
    segments: Dict[str, shared_memory.SharedMemory] = {}
    plans: Dict[int, dict] = {}

    def view(descriptor):
        return _segment_view(segments, descriptor, untrack_attachments)

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "plan":
            _, plan_id, descriptor = message
            plans[plan_id] = descriptor
            continue
        if kind == "forget-plan":
            plans.pop(message[1], None)
            continue
        if kind != "phase":  # pragma: no cover - protocol guard
            result_queue.put(("error", worker_id, -1,
                              f"unknown message kind {kind!r}"))
            continue
        _, sequence, plan_id, phase = message
        try:
            plan = plans[plan_id]
            source = view(phase["source"])
            target = view(phase["target"])
            noise = view(phase["noise"])
            items_flat = view(plan["items"])
            neighbours_flat = view(plan["neighbours"])
            values_flat = view(plan["values"])
            prior = GaussianPrior(mean=phase["prior_mean"],
                                  precision=phase["prior_precision"])
            buckets = []
            for super_id in phase["super_ids"]:
                flat_offset, row_offset, n_rows, pad, members = \
                    plan["supers"][super_id]
                block_shape = (n_rows, pad)
                neighbours = neighbours_flat[
                    flat_offset:flat_offset + n_rows * pad].reshape(block_shape)
                values = values_flat[
                    flat_offset:flat_offset + n_rows * pad].reshape(block_shape)
                items = items_flat[row_offset:row_offset + n_rows]
                for degree, member_offset, n_members in members:
                    rows = slice(member_offset, member_offset + n_members)
                    buckets.append(DegreeBucket(
                        degree=degree,
                        items=items[rows],
                        neighbours=neighbours[rows, :degree],
                        values=values[rows, :degree],
                    ))
            engine._update_buckets(buckets, target, source, prior,
                                   phase["alpha"], noise)
            result_queue.put(("done", worker_id, sequence))
        except BaseException:
            result_queue.put(("error", worker_id, sequence,
                              traceback.format_exc()))

    for segment in segments.values():
        segment.close()


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class _PhasePlan:
    """Main-process record of one registered (axis, items) phase plan."""

    def __init__(self, plan_id: int, fused: SuperBucketPlan,
                 n_planned_items: int):
        self.plan_id = plan_id
        self.n_planned_items = n_planned_items
        self.assignment: List[List[int]] = []
        self.blocks: List[_SharedBlock] = []
        self.descriptor: dict = {}
        self.planned_rows = (
            np.concatenate([sb.items for sb in fused.super_buckets])
            if fused.super_buckets else np.empty(0, dtype=np.int64))

        total_cells = sum(sb.n_items * sb.pad_degree
                          for sb in fused.super_buckets)
        items_block = _SharedBlock((self.planned_rows.shape[0],), np.int64)
        neighbours_block = _SharedBlock((total_cells,), np.int64)
        values_block = _SharedBlock((total_cells,), np.float64)
        self.blocks = [items_block, neighbours_block, values_block]

        items_view = items_block.view()
        neighbours_view = neighbours_block.view()
        values_view = values_block.view()
        supers = []
        flat_offset = 0
        row_offset = 0
        for super_bucket in fused.super_buckets:
            n_rows, pad = super_bucket.n_items, super_bucket.pad_degree
            cells = n_rows * pad
            items_view[row_offset:row_offset + n_rows] = super_bucket.items
            neighbours_view[flat_offset:flat_offset + cells] = \
                super_bucket.neighbours.ravel()
            values_view[flat_offset:flat_offset + cells] = \
                super_bucket.values.ravel()
            supers.append((
                flat_offset, row_offset, n_rows, pad,
                tuple((member.degree, member.row_offset, member.n_items)
                      for member in super_bucket.members),
            ))
            flat_offset += cells
            row_offset += n_rows
        self.descriptor = {
            "items": items_block.descriptor(),
            "neighbours": neighbours_block.descriptor(),
            "values": values_block.descriptor(),
            "supers": tuple(supers),
        }

    def destroy(self) -> None:
        for block in self.blocks:
            block.destroy()
        self.blocks = []


class SharedMemoryUpdateEngine(BatchedUpdateEngine):
    """Process-parallel batched engine over shared-memory segments.

    Parameters
    ----------
    policy:
        As for :class:`BatchedUpdateEngine`; the workers inherit it, so
        kernel selection behaves identically.
    n_workers:
        Worker process count; default: the machine's CPU count.
    tasks_per_worker:
        Fusion granularity — the planner targets roughly ``n_workers *
        tasks_per_worker`` super-buckets per phase, enough slack for the
        LPT assignment to balance skewed degree distributions.

    Notes
    -----
    ``update_items`` ignores ``parallel_map``: this engine schedules its
    own execution (``manages_parallelism`` is True), so wrapping it in a
    thread pool would only add contention.
    """

    name = "shared"
    manages_parallelism = True

    #: Cached phase plans (each pins ~2x its axis-subset's rating data in
    #: shared memory), evicted LRU beyond this bound.  Sized for the
    #: distributed sampler's working set: 2 phases x the ranks of a large
    #: simulated world, whose per-rank subsets jointly hold the data once.
    MAX_PHASE_PLANS = 64

    def __init__(self, policy: Optional[HybridUpdatePolicy] = None,
                 n_workers: Optional[int] = None,
                 tasks_per_worker: int = 8):
        super().__init__(policy)
        if n_workers is None:
            n_workers = max(1, os.cpu_count() or 1)
        check_positive("n_workers", n_workers)
        check_positive("tasks_per_worker", tasks_per_worker)
        self.n_workers = int(n_workers)
        self.tasks_per_worker = int(tasks_per_worker)
        self._pool = WorkerPool(self.n_workers, _worker_main,
                                extra_args=(self.policy,),
                                name_prefix="repro-shared-worker")
        self._sequence = itertools.count()
        self._plan_ids = itertools.count()
        # key -> (axis, plan): the axis reference keeps the key's id() valid.
        self._phase_plans: "Dict[Tuple, Tuple[CompressedAxis, _PhasePlan]]" = {}
        self._factor_blocks: Dict[Tuple, _SharedBlock] = {}

    # -- pool lifecycle ---------------------------------------------------

    @property
    def pool_running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._pool.running

    @property
    def _workers(self) -> List[Tuple]:
        """The pool's (Process, task_queue) pairs (tests kill through it)."""
        return self._pool.workers

    def _ensure_pool(self) -> None:
        try:
            self._pool.ensure()
        except WorkerPoolError:
            # A worker died (crash or external kill): tear everything down
            # (the pool itself already stopped) so the segments cannot
            # leak, and fail loudly rather than computing a partial phase.
            self.close()
            raise

    def close(self) -> None:
        """Stop the pool and unlink every owned shared-memory segment.

        Idempotent, exception-safe, and called by the samplers in a
        ``finally``; the engine is reusable afterwards (pool and plans are
        rebuilt lazily on the next phase).
        """
        self._pool.stop()
        for _, plan in self._phase_plans.values():
            plan.destroy()
        self._phase_plans = {}
        for block in self._factor_blocks.values():
            block.destroy()
        self._factor_blocks = {}

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- plan + factor staging -------------------------------------------

    def _shared_plan(self, axis: CompressedAxis, items: Optional[np.ndarray],
                     num_latent: int) -> _PhasePlan:
        key = (id(axis),
               None if items is None else np.asarray(items, np.int64).tobytes(),
               int(num_latent))
        entry = self._phase_plans.get(key)
        # Entries keep the axis alongside the plan: id() values are only
        # unique while the object lives, so the identity check prevents a
        # recycled id from silently serving shared-memory gathers built
        # from a previous dataset's ratings.
        if entry is not None and entry[0] is axis:
            # Refresh recency so the eviction below is LRU, not FIFO.
            self._phase_plans.pop(key)
            self._phase_plans[key] = entry
            return entry[1]
        bucket_plan = cached_bucket_plan(axis, items)
        fused = fuse_bucket_plan(
            bucket_plan, num_latent,
            n_tasks_hint=self.n_workers * self.tasks_per_worker)
        plan = _PhasePlan(next(self._plan_ids), fused,
                          bucket_plan.n_planned_items)
        plan.assignment = fused.assign_workers(self.n_workers)
        if entry is not None:  # recycled id: drop the stale entry's segments
            self._phase_plans.pop(key)
            self._forget_plan(entry[1])
        while len(self._phase_plans) >= self.MAX_PHASE_PLANS:
            _, evicted = self._phase_plans.pop(next(iter(self._phase_plans)))
            self._forget_plan(evicted)
        self._pool.broadcast(("plan", plan.plan_id, plan.descriptor))
        self._phase_plans[key] = (axis, plan)
        return plan

    def _forget_plan(self, plan: _PhasePlan) -> None:
        self._pool.broadcast(("forget-plan", plan.plan_id))
        plan.destroy()

    def _factor_block(self, role: str, shape: Tuple[int, ...]) -> _SharedBlock:
        key = (role, tuple(shape))
        block = self._factor_blocks.get(key)
        if block is None:
            block = _SharedBlock(shape, np.float64)
            self._factor_blocks[key] = block
        return block

    def _stage(self, role: str, array: np.ndarray) -> _SharedBlock:
        block = self._factor_block(role, array.shape)
        block.view()[...] = array
        return block

    # -- phase execution --------------------------------------------------

    def update_items(self, target, source, axis, prior, alpha, noise,
                     items=None, parallel_map=None):
        del parallel_map  # this engine schedules its own parallelism
        self._ensure_pool()
        try:
            plan = self._shared_plan(axis, items, prior.num_latent)
            if plan.planned_rows.size == 0:
                return plan.n_planned_items
            source_block = self._stage("source", source)
            noise_block = self._stage("noise", noise)
            target_block = self._factor_block("target", target.shape)
            sequence = next(self._sequence)
            phase = {
                "source": source_block.descriptor(),
                "target": target_block.descriptor(),
                "noise": noise_block.descriptor(),
                "prior_mean": np.asarray(prior.mean, dtype=np.float64),
                "prior_precision": np.asarray(prior.precision,
                                              dtype=np.float64),
                "alpha": float(alpha),
            }
            pending: Dict[int, None] = {}
            for worker_id, super_ids in enumerate(plan.assignment):
                if not super_ids:
                    continue
                self._pool.send(worker_id,
                                ("phase", sequence, plan.plan_id,
                                 {**phase, "super_ids": tuple(super_ids)}))
                pending[worker_id] = None
            self._pool.collect(pending, sequence, label="phase")
            rows = plan.planned_rows
            target[rows] = target_block.view()[rows]
            return plan.n_planned_items
        except WorkerPoolError:
            # A failed phase leaves the pool in an unknown state (partially
            # written target rows, possibly dead workers): tear down so
            # nothing leaks and the next use starts clean.
            self.close()
            raise
