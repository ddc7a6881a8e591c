"""Sharded top-N scoring over a persistent shared-memory worker pool.

:class:`ShardedScorer` is the query gateway of the serving cluster: a
:class:`~repro.serving.service.PredictionService` whose ranked retrieval
runs on worker processes.  The item factor block is cut into contiguous
shards (:func:`repro.sparse.shard.shard_bounds`), each placed in a
:mod:`multiprocessing.shared_memory` segment and owned by one scoring
worker.  A ``top_n`` query carries its users' factor rows (K floats
each) to the workers, each ranks its slice with the deterministic
:func:`~repro.core.recommend.select_top_n` rule, and the gateway
recombines the local lists with the exact k-way merge
:func:`~repro.core.recommend.merge_top_n` — the served ranking is
bit-identical to the single-process
:meth:`~repro.serving.service.PredictionService.top_n`
(``tests/test_serving_cluster.py`` pins this across shard counts,
including exact score ties).

Everything else — point predictions, cold-start fold-in, incremental
``add_ratings``, the state digest — is the inherited in-process service,
run on the gateway's own user and item factors: the workers hold no user
state, so a mutation has nothing to propagate.

The pool/teardown machinery is reused from
:mod:`repro.core.shared_engine` (same segment wrapper, same worker
attach-and-untrack discipline, same dead-worker detection), so segment
hygiene follows one proven pattern.

Versioned snapshots are double-buffered: a hot swap
(:meth:`ShardedScorer.load_version`) builds the new version's segments
off-line, registers them with the workers, flips the active version under
the gateway lock, and only then retires the old segments — an in-flight
request always completes against the version it started on, and only
fully-validated snapshots are ever activated.
"""

from __future__ import annotations

import functools
import itertools
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.recommend import Recommendation, merge_top_n, select_top_n
from repro.obs.trace import maybe_span
# The pool lifecycle and segment plumbing are the training engine's.
from repro.core.shared_engine import (
    WorkerPool,
    WorkerPoolError,
    _SharedBlock,
    _segment_view,
)
from repro.serving.service import PredictionService, SnapshotLike
from repro.sparse.csr import RatingMatrix
from repro.sparse.shard import shard_bounds, slice_item_range
from repro.utils.validation import ValidationError, check_positive

__all__ = ["ShardedScorer", "ClusterError"]


class ClusterError(WorkerPoolError):
    """A cluster worker failed or died while serving a request."""


# ---------------------------------------------------------------------------
# the scoring worker
# ---------------------------------------------------------------------------

def _cluster_worker_main(worker_id: int, untrack: bool, task_queue,
                         result_queue) -> None:
    """Serve scoring requests until a stop message arrives.

    Worker state is exactly what the gateway registered: per-version item
    shard views, plus the (version-independent) training-rating slices
    used for ``exclude_seen`` filtering.  User rows arrive with each
    request.
    """
    import traceback

    segments: Dict[str, shared_memory.SharedMemory] = {}
    versions: Dict[int, dict] = {}
    train_shards: Dict[int, RatingMatrix] = {}
    n_train_users = 0

    def user_shard_part(version: dict, shard: Tuple, user: int,
                        row: np.ndarray, n: int, exclude_seen: bool):
        """One (user, shard) slice of a top-N request."""
        shard_id, lo, hi, items_view = shard
        scores = items_view @ row
        scores += version["offset"]
        candidates = np.arange(hi - lo, dtype=np.int64)
        train_shard = train_shards.get(shard_id)
        if exclude_seen and train_shard is not None \
                and user < n_train_users:
            seen, _ = train_shard.user_ratings(user)
            candidates = np.setdiff1d(candidates, seen, assume_unique=False)
        if candidates.shape[0] == 0:
            return None
        local = scores[candidates]
        order = select_top_n(local, n)
        return (candidates[order] + lo, local[order].copy())

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "train-shards":
                _, train_shards, n_train_users = message
                continue
            if kind == "load-version":
                _, version_id, offset, shards = message
                versions[version_id] = {
                    "offset": offset,
                    "shards": [(shard_id, lo, hi, _segment_view(
                                    segments, descriptor, untrack))
                               for shard_id, lo, hi, descriptor in shards],
                    "segment_names": [descriptor[0]
                                      for *_, descriptor in shards],
                }
                continue
            if kind == "retire-version":
                version = versions.pop(message[1], None)
                if version is not None:
                    for name in version["segment_names"]:
                        segments.pop(name).close()
                continue
        except BaseException:  # registration failures are fatal per-worker
            result_queue.put(("error", worker_id, -1, traceback.format_exc()))
            continue

        # The one request: ("topn", sequence, version_id, users, rows, n,
        # exclude_seen).  The sweep is shard-outer so the shard's item
        # block stays cache-hot across the user loop, and each (user,
        # shard) cell is the same `user_shard_part` whatever the batch.
        sequence = message[1]
        try:
            if kind != "topn":
                raise ValidationError(f"unknown message kind {kind!r}")
            _, _, version_id, users, rows, n, exclude_seen = message
            version = versions[version_id]
            user_parts: List[List[Tuple[np.ndarray, np.ndarray]]] = \
                [[] for _ in users]
            for shard in version["shards"]:
                for position, user in enumerate(users):
                    part = user_shard_part(version, shard, user,
                                           rows[position], n, exclude_seen)
                    if part is not None:
                        user_parts[position].append(part)
            # Response buffers: the whole window's candidate lists go back
            # as three packed arrays (per-user lengths + one item-id
            # buffer + one score buffer) — one pickle of contiguous memory
            # per window, which the gateway slices without copying.
            merged = [merge_top_n(parts, n) for parts in user_parts]
            counts = np.array([items.shape[0] for items, _ in merged],
                              dtype=np.int64)
            items_buf = np.concatenate([items for items, _ in merged])
            scores_buf = np.concatenate([scores for _, scores in merged])
            result_queue.put(("done", worker_id, sequence,
                              (counts, items_buf, scores_buf)))
        except BaseException:
            result_queue.put(("error", worker_id, sequence,
                              traceback.format_exc()))

    for segment in segments.values():
        segment.close()


# ---------------------------------------------------------------------------
# gateway-side version bookkeeping
# ---------------------------------------------------------------------------

class _VersionState:
    """One snapshot version's item shards in shared memory (gateway side)."""

    def __init__(self, version_id: int, item_factors: np.ndarray,
                 bounds: Sequence[Tuple[int, int]]):
        self.version_id = version_id
        self.item_blocks: List[_SharedBlock] = []
        for lo, hi in bounds:
            block = _SharedBlock((hi - lo, item_factors.shape[1]), np.float64)
            block.view()[...] = item_factors[lo:hi]
            self.item_blocks.append(block)

    def destroy(self) -> None:
        for block in self.item_blocks:
            block.destroy()
        self.item_blocks = []


def _under_lock(method):
    """``method`` made under the gateway lock, so that a hot swap never
    lands inside it (a fold-in racing a swap would otherwise be lost)."""
    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return locked


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------

class ShardedScorer(PredictionService):
    """Sharded, hot-swappable serving gateway (see module docstring).

    Parameters
    ----------
    snapshot, train:
        As for :class:`~repro.serving.service.PredictionService` (one
        snapshot, not a list), whose factors, offset and seen-item
        exclusion the gateway inherits.
    n_shards:
        Number of contiguous item shards.
    n_workers:
        Worker process count; default one per shard.  Fewer workers than
        shards is allowed — shards are assigned round-robin and each
        worker merges across its shards locally before the gateway's
        global merge.
    """

    #: Dotted prefix this gateway's :meth:`stats` surfaces under in a
    #: :class:`~repro.obs.metrics.MetricsRegistry` snapshot.
    METRICS_PREFIX = "cluster.scorer"
    #: Ranking blocks on worker IPC, so a NetServer calls this gateway
    #: from its private scorer thread, never on its event loop.
    IN_PROCESS = False

    # The inherited calls that read or write the factors a swap replaces.
    predict_batch = _under_lock(PredictionService.predict_batch)
    fold_in = _under_lock(PredictionService.fold_in)
    add_ratings = _under_lock(PredictionService.add_ratings)
    state_digest = _under_lock(PredictionService.state_digest)

    def __init__(self, snapshot: SnapshotLike, n_shards: int = 2,
                 train: Optional[RatingMatrix] = None,
                 n_workers: Optional[int] = None):
        check_positive("n_shards", n_shards)
        super().__init__(snapshot, train=train)
        self.n_shards = int(n_shards)
        self._bounds = shard_bounds(self.n_items, self.n_shards)
        if n_workers is None:
            n_workers = self.n_shards
        check_positive("n_workers", n_workers)
        self.n_workers = min(int(n_workers), self.n_shards)
        self._train_shards: Dict[int, RatingMatrix] = {}
        if train is not None:
            self._train_shards = {
                shard: slice_item_range(train, lo, hi)
                for shard, (lo, hi) in enumerate(self._bounds)}

        self._lock = threading.RLock()
        self._pool = WorkerPool(self.n_workers, _cluster_worker_main,
                                name_prefix="repro-cluster-worker")
        self._sequence = itertools.count()
        self._version_ids = itertools.count()
        self._closed = False
        self.n_swaps = 0
        self.n_queries = 0
        self.n_batch_dispatches = 0
        self._active = _VersionState(next(self._version_ids),
                                     self._item_factors, self._bounds)

    # -- pool lifecycle ----------------------------------------------------

    @property
    def version(self) -> int:
        """Active snapshot version id (increments on every hot swap)."""
        return self._active.version_id

    @property
    def pool_running(self) -> bool:
        return self._pool.running

    @property
    def _workers(self) -> List[Tuple]:
        """The pool's (Process, task_queue) pairs (tests kill through it)."""
        return self._pool.workers

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one shard worker process (chaos drills).

        The in-flight query against it fails with :class:`ClusterError`;
        the next query respawns the whole pool and re-registers every
        shard, so the scorer self-heals without caller intervention.
        """
        workers = self._pool.workers
        if not 0 <= worker_id < len(workers):
            raise ValidationError(
                f"worker_id must be in [0, {len(workers)}), got {worker_id}")
        process = workers[worker_id][0]
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)

    def _owned_shards(self, worker_id: int) -> range:
        """The shards one worker owns (round-robin)."""
        return range(worker_id, self.n_shards, self.n_workers)

    def _register_version(self, worker_id: int) -> None:
        """Hand one worker the active version's shards it owns.

        Listing only the worker's own shards is what makes the fan-out
        partition exact: no item is scored twice, none is skipped.
        """
        version = self._active
        self._pool.send(worker_id, (
            "load-version", version.version_id, self.offset,
            tuple((shard, *self._bounds[shard],
                   version.item_blocks[shard].descriptor())
                  for shard in self._owned_shards(worker_id))))

    def _ensure_pool(self) -> None:
        if self._closed:
            raise ValidationError("ShardedScorer is closed")
        try:
            spawned = self._pool.ensure()
        except WorkerPoolError as error:
            raise ClusterError(
                f"{error} — the next query respawns it") from error
        if not spawned:
            return
        for worker_id in range(self.n_workers):
            self._pool.send(worker_id, (
                "train-shards",
                {shard: self._train_shards[shard]
                 for shard in self._owned_shards(worker_id)
                 if shard in self._train_shards},
                self.n_train_users))
            self._register_version(worker_id)

    def close(self, _terminal: bool = True) -> None:
        """Stop the workers and unlink every shared-memory segment.

        Terminal for ranking: a closed scorer answers no further
        ``top_n``.  (The internal non-terminal variant tears down a
        crashed pool while keeping the segments, letting the next query
        respawn workers.)
        """
        with self._lock:
            self._pool.stop()
            if _terminal and not self._closed:
                self._active.destroy()
                self._closed = True

    def __enter__(self) -> "ShardedScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- ranked retrieval --------------------------------------------------

    def top_n(self, user: int, n: int = 10,
              exclude_seen: bool = True) -> Recommendation:
        """Top-``n`` items for ``user``, scored shard-parallel.

        Bit-identical to the single-process
        :meth:`PredictionService.top_n` on the same snapshot: every shard
        ranks its slice with the shared deterministic rule and the
        gateway's k-way merge is exact.
        """
        return self.top_n_batch([user], n=n, exclude_seen=exclude_seen)[
            int(user)]

    def top_n_batch(self, users: Sequence[int], n: int = 10,
                    exclude_seen: bool = True) -> Dict[int, Recommendation]:
        """Ranked lists for several users in one fan-out.

        The whole batch costs a single dispatch to every worker (one
        round-trip per window instead of one per user), and each worker
        sweeps its shards once for all users.  Every user's ranking is
        bit-identical to their lone :meth:`top_n`: worker-side each
        (user, shard) cell is the same function, and the gateway merge is
        the same exact k-way merge.  This is the entry point the network
        frontend's query fuser batches into.
        """
        check_positive("n", n)
        unique = list(dict.fromkeys(int(user) for user in users))
        if not unique:
            return {}
        # Inside a traced fused window (fusion.window active on this
        # thread) the worker fan-out gets its own child span; untraced,
        # maybe_span is a no-op.
        with maybe_span("cluster.scorer.batch", users=len(unique),
                        n=int(n), workers=self.n_workers,
                        shards=self.n_shards), self._lock:
            self._check_users(np.array(unique, dtype=np.int64))
            self._ensure_pool()
            sequence = next(self._sequence)
            try:
                self._pool.broadcast((
                    "topn", sequence, self._active.version_id,
                    tuple(unique), self._user_factors[unique], int(n),
                    bool(exclude_seen)))
                responses = self._pool.collect(
                    dict.fromkeys(range(self.n_workers)), sequence,
                    label="query")
            except WorkerPoolError as error:
                self.close(_terminal=False)
                if isinstance(error, ClusterError):
                    raise
                raise ClusterError(str(error)) from error
            self.n_queries += len(unique)
            self.n_batch_dispatches += 1
            # Unpack each worker's packed response buffers into per-user
            # views (cumsum offsets into the shared item/score buffers —
            # no per-element copies) and run the same exact k-way merge.
            per_worker: List[List[Tuple[np.ndarray, np.ndarray]]] = []
            for counts, items_buf, scores_buf in responses.values():
                offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                per_worker.append(
                    [(items_buf[offsets[position]:offsets[position + 1]],
                      scores_buf[offsets[position]:offsets[position + 1]])
                     for position in range(len(unique))])
            merged = [merge_top_n([parts[position]
                                   for parts in per_worker], n)
                      for position in range(len(unique))]
        return {user: Recommendation(user=user, items=items, scores=scores)
                for user, (items, scores) in zip(unique, merged)}

    # -- hot snapshot swap -------------------------------------------------

    def load_version(self, source: SnapshotLike) -> int:
        """Validate and atomically activate a new posterior snapshot.

        The snapshot is fully loaded (integrity-checked when read from
        disk), shape-validated against the serving configuration, and
        staged into *fresh* segments before anything is swapped.  The
        gateway adopts the new snapshot's priors and ``alpha`` with its
        factors, and folded-in users are re-folded under them, so they
        survive the swap and a user folded in afterwards gets the row a
        fresh service on that snapshot gives.  The flip happens under the
        gateway lock, after which the old version's segments are retired
        — requests never observe a half-loaded version.  Returns the new
        version id.
        """
        staging = PredictionService(source, train=self._train)
        if (staging.n_items, staging.num_latent) \
                != (self.n_items, self.num_latent):
            raise ValidationError(
                f"snapshot factors are {staging.n_items} items x "
                f"K={staging.num_latent}, but the cluster serves "
                f"{self.n_items} items x K={self.num_latent}")
        if staging.n_train_users != self.n_train_users:
            raise ValidationError(
                f"snapshot has {staging.n_train_users} training users, "
                f"the cluster serves {self.n_train_users}")
        if staging.offset != self.offset:
            # Folded-in users' stored rating values (and their sufficient
            # statistics) had *this* offset removed; swapping in a
            # re-centred snapshot would silently shift their predictions
            # by the offset delta.
            raise ValidationError(
                f"snapshot was centred with offset {staging.offset}, the "
                f"cluster serves offset {self.offset}")

        with self._lock:
            if self._closed:
                raise ValidationError("ShardedScorer is closed")
            # Re-fold every registered cold-start user against the new
            # item factors and prior, preserving their ids (buffer order).
            refreshed = self._foldin.refreshed(
                staging._item_factors, staging._user_prior, staging._alpha)
            replacement = _VersionState(next(self._version_ids),
                                        staging._item_factors, self._bounds)
            old, self._active = self._active, replacement
            self._foldin = refreshed
            self._item_factors = staging._item_factors
            self._user_prior = staging._user_prior
            self._movie_prior = staging._movie_prior
            self._alpha = staging._alpha
            self._user_buffer = self._user_factors = staging._user_factors
            if refreshed.states:
                self._append_user_rows(np.array(
                    [refreshed.states[user].row()
                     for user in sorted(refreshed.states)]))
            if self._pool.started:
                for worker_id in range(self.n_workers):
                    self._register_version(worker_id)
                    self._pool.send(worker_id,
                                    ("retire-version", old.version_id))
            old.destroy()
            self.n_swaps += 1
            return replacement.version_id

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Gateway counters (queries, swaps, population, pool).

        Includes the :class:`WorkerPool` health counters (respawns after
        dead workers, worker-side registration failures), so the network
        frontend's ``health`` frame can report pool churn.
        """
        counters = {
            "n_queries": self.n_queries,
            "n_batch_dispatches": self.n_batch_dispatches,
            "n_swaps": self.n_swaps,
            "n_shards": self.n_shards,
            "n_workers": self.n_workers,
            "n_users": self.n_users,
            "n_folded_in": self.n_users - self.n_train_users,
            "version": self.version,
        }
        counters.update(self._pool.stats())
        return counters
