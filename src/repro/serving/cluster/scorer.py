"""Sharded top-N scoring over a persistent shared-memory worker pool.

:class:`ShardedScorer` is the query gateway of the serving cluster.  The
item factor block is cut into contiguous shards
(:func:`repro.sparse.shard.shard_bounds`), each placed in a
:mod:`multiprocessing.shared_memory` segment and owned by one scoring
worker; the user factor block lives in a single shared segment every
worker can read.  A ``top_n`` query fans out to the workers, each ranks
its slice with the deterministic
:func:`~repro.core.recommend.select_top_n` rule, and the gateway
recombines the local lists with the exact k-way merge
:func:`~repro.core.recommend.merge_top_n` — the served ranking is
bit-identical to the single-process
:meth:`~repro.serving.service.PredictionService.top_n`
(``tests/test_serving_cluster.py`` pins this across shard counts,
including exact score ties).

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

User-side mutations flow through a small **delta queue**: fold-in appends
and buffer growth are staged as messages flushed to the workers before
the next query dispatch, while in-place row rewrites (incremental
fold-in, :meth:`ShardedScorer.add_ratings`) propagate through the shared
segment itself.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from repro.core.checkpoint import Snapshot, coerce_snapshot
from repro.serving.foldin import FoldInRegistry, fold_in_users
from repro.serving.service import (
    PredictionService,
    SnapshotLike,
    check_item_range,
    check_user_range,
)
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
    shard views + the user block view, plus the (version-independent)
    training-rating slices used for ``exclude_seen`` filtering.
    """
    import traceback

    segments: Dict[str, shared_memory.SharedMemory] = {}
    versions: Dict[int, dict] = {}
    train_shards: Dict[int, RatingMatrix] = {}
    n_train_users = 0

    def view(descriptor):
        return _segment_view(segments, descriptor, untrack)

    def close_version_segments(version: dict) -> None:
        for name in version["segment_names"]:
            segment = segments.pop(name, None)
            if segment is not None:
                segment.close()

    def user_shard_part(version: dict, shard: Tuple, user: int, n: int,
                        exclude_seen: bool):
        """One (user, shard) slice of a top-N request.

        The single-user and batched paths both call exactly this function,
        so a fused batch's per-user arithmetic is the single request's
        arithmetic — bit-identical by construction, not by tolerance.
        """
        shard_id, lo, hi, items_view = shard
        scores = items_view @ version["users"][user]
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
                _, shards, n_train_users = message
                train_shards = shards
                continue
            if kind == "load-version":
                _, version_id, payload = message
                names = [payload["users"][0]]
                shards = []
                for shard_id, lo, hi, descriptor in payload["shards"]:
                    shards.append((shard_id, lo, hi, view(descriptor)))
                    names.append(descriptor[0])
                versions[version_id] = {
                    "offset": payload["offset"],
                    "shards": shards,
                    "users": view(payload["users"]),
                    "n_users": payload["n_users"],
                    "segment_names": names,
                }
                continue
            if kind == "retire-version":
                version = versions.pop(message[1], None)
                if version is not None:
                    close_version_segments(version)
                continue
            if kind == "user-count":
                versions[message[1]]["n_users"] = message[2]
                continue
            if kind == "user-block":
                _, version_id, descriptor, n_users = message
                version = versions[version_id]
                # The old user segment's name stays in segment_names, so
                # retire/exit still closes the local mapping.
                version["users"] = view(descriptor)
                version["n_users"] = n_users
                version["segment_names"].append(descriptor[0])
                continue
        except BaseException:  # registration failures are fatal per-worker
            result_queue.put(("error", worker_id, -1, traceback.format_exc()))
            continue

        # Request messages: ("topn"|"gather", sequence, version_id, ...).
        sequence = message[1]
        try:
            version = versions[message[2]]
            if kind == "topn":
                _, _, _, user, n, exclude_seen = message
                if not 0 <= user < version["n_users"]:
                    raise ValidationError(
                        f"user {user} outside [0, {version['n_users']})")
                parts: List[Tuple[np.ndarray, np.ndarray]] = []
                for shard in version["shards"]:
                    part = user_shard_part(version, shard, user, n,
                                           exclude_seen)
                    if part is not None:
                        parts.append(part)
                result_queue.put(("done", worker_id, sequence,
                                  merge_top_n(parts, n)))
            elif kind == "topn-batch":
                # The cross-user fused form: one worker visit ranks every
                # user of the window.  The sweep is shard-outer so the
                # shard's item block stays cache-hot across the user loop
                # (a blocked GEMM whose microkernel is the single-user
                # GEMV), and each (user, shard) cell is computed by the
                # same `user_shard_part` as a lone request.
                _, _, _, users, n, exclude_seen = message
                for user in users:
                    if not 0 <= user < version["n_users"]:
                        raise ValidationError(
                            f"user {user} outside [0, {version['n_users']})")
                user_parts: List[List[Tuple[np.ndarray, np.ndarray]]] = \
                    [[] for _ in users]
                for shard in version["shards"]:
                    for position, user in enumerate(users):
                        part = user_shard_part(version, shard, user, n,
                                               exclude_seen)
                        if part is not None:
                            user_parts[position].append(part)
                # Response buffers: the whole window's candidate lists go
                # back as three packed arrays (per-user lengths + one
                # item-id buffer + one score buffer) instead of a Python
                # list of per-user tuples — one pickle of contiguous
                # memory per window, and the gateway slices views out of
                # it without copying a single element.
                merged = [merge_top_n(parts, n) for parts in user_parts]
                counts = np.array([items.shape[0] for items, _ in merged],
                                  dtype=np.int64)
                items_buf = np.concatenate(
                    [items for items, _ in merged]) if merged \
                    else np.empty(0, dtype=np.int64)
                scores_buf = np.concatenate(
                    [scores for _, scores in merged]) if merged \
                    else np.empty(0)
                result_queue.put(("done", worker_id, sequence,
                                  (counts, items_buf, scores_buf)))
            elif kind == "gather":
                _, _, _, requests = message
                shards = {shard_id: items_view for shard_id, _, _, items_view
                          in version["shards"]}
                rows = [shards[shard_id][local_ids].copy()
                        for shard_id, local_ids in requests]
                result_queue.put(("done", worker_id, sequence, rows))
            else:
                result_queue.put(("error", worker_id, sequence,
                                  f"unknown message kind {kind!r}"))
        except BaseException:
            result_queue.put(("error", worker_id, sequence,
                              traceback.format_exc()))

    for segment in segments.values():
        segment.close()


# ---------------------------------------------------------------------------
# gateway-side version bookkeeping
# ---------------------------------------------------------------------------

class _VersionState:
    """One snapshot version's shared-memory residency (gateway side)."""

    def __init__(self, version_id: int, item_factors: np.ndarray,
                 bounds: Sequence[Tuple[int, int]], user_factors: np.ndarray,
                 n_train_users: int, offset: float):
        self.version_id = version_id
        self.bounds = list(bounds)
        self.offset = float(offset)
        self.n_train_users = int(n_train_users)
        self.n_users = int(user_factors.shape[0])
        num_latent = int(item_factors.shape[1])
        self.item_blocks: List[_SharedBlock] = []
        for lo, hi in self.bounds:
            block = _SharedBlock((hi - lo, num_latent), np.float64)
            block.view()[...] = item_factors[lo:hi]
            self.item_blocks.append(block)
        capacity = max(self.n_users + 64, 2 * self.n_users)
        self.user_block = _SharedBlock((capacity, num_latent), np.float64)
        self.user_block.view()[:self.n_users] = user_factors

    @property
    def user_capacity(self) -> int:
        return self.user_block.shape[0]

    def user_view(self) -> np.ndarray:
        return self.user_block.view()[:self.n_users]

    def payload(self, shard_ids: Sequence[int]) -> dict:
        """One worker's ``load-version`` registration message body.

        Listing only the worker's own shards is what makes the fan-out
        partition exact: no item is scored twice, none is skipped.
        """
        return {
            "offset": self.offset,
            "shards": tuple(
                (shard_id, *self.bounds[shard_id],
                 self.item_blocks[shard_id].descriptor())
                for shard_id in shard_ids),
            "users": self.user_block.descriptor(),
            "n_users": self.n_users,
        }

    def grow_users(self, need: int) -> _SharedBlock:
        """Replace the user segment with a doubled one; returns the old."""
        num_latent = self.user_block.shape[1]
        capacity = max(need, 2 * self.user_capacity)
        replacement = _SharedBlock((capacity, num_latent), np.float64)
        replacement.view()[:self.n_users] = self.user_block.view()[:self.n_users]
        old, self.user_block = self.user_block, replacement
        return old

    def destroy(self) -> None:
        for block in self.item_blocks:
            block.destroy()
        self.item_blocks = []
        self.user_block.destroy()


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------

class ShardedScorer:
    """Sharded, hot-swappable serving gateway (see module docstring).

    Parameters
    ----------
    snapshots, mode, train, clip:
        As for :class:`~repro.serving.service.PredictionService`; snapshot
        combination, offset handling and seen-item exclusion semantics are
        identical (the constructor literally derives the serving factors
        through a transient ``PredictionService``).
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

    def __init__(self, snapshots: Union[SnapshotLike, Sequence[SnapshotLike]],
                 n_shards: int = 2, mode: str = "mean",
                 train: Optional[RatingMatrix] = None,
                 clip: Optional[Tuple[float, float]] = None,
                 n_workers: Optional[int] = None):
        check_positive("n_shards", n_shards)
        service = PredictionService(snapshots, mode=mode, train=train,
                                    clip=clip)
        self.mode = mode
        self.clip = clip
        self.n_shards = int(n_shards)
        self.n_items = service.n_items
        self.num_latent = service.num_latent
        self._n_train_users = service.n_train_users
        self._user_prior = service._user_prior
        self._alpha = service._alpha
        self._train = train
        self._bounds = shard_bounds(self.n_items, self.n_shards)
        if n_workers is None:
            n_workers = self.n_shards
        check_positive("n_workers", n_workers)
        self.n_workers = min(int(n_workers), self.n_shards)
        self._shard_owner = [shard % self.n_workers
                             for shard in range(self.n_shards)]
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
        self._pending_deltas: List[Tuple] = []
        self._foldin = FoldInRegistry(self._user_prior, self._alpha)
        self._closed = False
        self.n_swaps = 0
        self.n_queries = 0
        self.n_batch_dispatches = 0
        self.n_deltas_flushed = 0

        self._active = _VersionState(
            next(self._version_ids), service._item_factors, self._bounds,
            service._user_factors, self._n_train_users, service.offset)
        del service  # the cluster's factors now live in the segments

    # -- shape properties --------------------------------------------------

    @property
    def offset(self) -> float:
        return self._active.offset

    @property
    def n_users(self) -> int:
        """Total users served, including folded-in cold-start users."""
        return self._active.n_users

    @property
    def n_train_users(self) -> int:
        return self._n_train_users

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

    # -- pool lifecycle ----------------------------------------------------

    def _owned_shards(self, worker_id: int) -> List[int]:
        return [shard for shard, owner in enumerate(self._shard_owner)
                if owner == worker_id]

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
        self._pending_deltas = []  # the fresh registration supersedes them
        for worker_id in range(self.n_workers):
            mine = self._owned_shards(worker_id)
            self._pool.send(worker_id,
                            ("train-shards",
                             {shard: self._train_shards[shard]
                              for shard in mine
                              if shard in self._train_shards},
                             self._n_train_users))
            self._pool.send(worker_id,
                            ("load-version", self._active.version_id,
                             self._active.payload(mine)))

    def close(self, _terminal: bool = True) -> None:
        """Stop the workers and unlink every shared-memory segment.

        Terminal for serving: the factors live only in the segments, so a
        closed scorer cannot answer further queries.  (The internal
        non-terminal variant tears down a crashed pool while keeping the
        gateway state, letting the next query respawn workers.)
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

    # -- request plumbing --------------------------------------------------

    def _flush_deltas(self) -> None:
        """Push queued user-side structural deltas to every worker.

        Called with a freshly-spawned pool the queue is already empty —
        ``_ensure_pool``'s full registration supersedes pending deltas.
        """
        if not self._pending_deltas or not self._pool.started:
            return
        deltas, self._pending_deltas = self._pending_deltas, []
        for delta in deltas:
            self._pool.broadcast(delta)
        self.n_deltas_flushed += len(deltas)

    def _dispatch(self, make_message) -> Dict[int, object]:
        """Send one request to every worker and collect the responses.

        ``make_message(worker_id, sequence)`` returns the message for one
        worker, or ``None`` to skip it.  Dead workers and worker-side
        registration failures surface as :class:`ClusterError` (and tear
        the pool down), exactly like the training engine's phase wait —
        the machinery is literally :meth:`WorkerPool.collect`.
        """
        self._ensure_pool()
        self._flush_deltas()
        sequence = next(self._sequence)
        pending: Dict[int, None] = {}
        try:
            for worker_id in range(self.n_workers):
                message = make_message(worker_id, sequence)
                if message is None:
                    continue
                self._pool.send(worker_id, message)
                pending[worker_id] = None
            return self._pool.collect(pending, sequence, label="query")
        except WorkerPoolError as error:
            self.close(_terminal=False)
            if isinstance(error, ClusterError):
                raise
            raise ClusterError(str(error)) from error

    def _check_users(self, users: np.ndarray) -> None:
        check_user_range(users, self.n_users, self._n_train_users)

    def _check_items(self, items: np.ndarray) -> None:
        check_item_range(items, self.n_items)

    # -- ranked retrieval --------------------------------------------------

    def top_n(self, user: int, n: int = 10,
              exclude_seen: bool = True) -> Recommendation:
        """Top-``n`` items for ``user``, scored shard-parallel.

        Bit-identical to the single-process
        :meth:`PredictionService.top_n` on the same snapshot: every shard
        ranks its slice with the shared deterministic rule and the
        gateway's k-way merge is exact.
        """
        check_positive("n", n)
        with self._lock:
            self._check_users(np.array([user], dtype=np.int64))
            user = int(user)
            version_id = self._active.version_id
            responses = self._dispatch(
                lambda worker_id, sequence:
                ("topn", sequence, version_id, user, int(n),
                 bool(exclude_seen)))
            self.n_queries += 1
            items, scores = merge_top_n(responses.values(), n)
        if self.clip is not None:
            scores = np.clip(scores, self.clip[0], self.clip[1])
        return Recommendation(user=user, items=items, scores=scores)

    def top_n_batch(self, users: Sequence[int], n: int = 10,
                    exclude_seen: bool = True) -> Dict[int, Recommendation]:
        """Ranked lists for several users in one fan-out.

        The whole batch costs a single dispatch to every worker (one
        round-trip per window instead of one per user), and each worker
        sweeps its shards once for all users.  Every user's ranking is
        bit-identical to their lone :meth:`top_n` — worker-side the batch
        runs the same per-(user, shard) function, and the gateway merge is
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
            version_id = self._active.version_id
            responses = self._dispatch(
                lambda worker_id, sequence:
                ("topn-batch", sequence, version_id, tuple(unique), int(n),
                 bool(exclude_seen)))
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
        results: Dict[int, Recommendation] = {}
        for user, (items, scores) in zip(unique, merged):
            if self.clip is not None:
                scores = np.clip(scores, self.clip[0], self.clip[1])
            results[user] = Recommendation(user=user, items=items,
                                           scores=scores)
        return results

    # -- point predictions -------------------------------------------------

    def _gather_item_rows(self, items: np.ndarray) -> np.ndarray:
        """Fetch ``item_factors[items]`` from the owning shards."""
        lows = np.array([lo for lo, _ in self._bounds], dtype=np.int64)
        shard_of = np.searchsorted(lows, items, side="right") - 1
        per_worker: Dict[int, List[Tuple[int, np.ndarray, np.ndarray]]] = {}
        for shard in np.unique(shard_of):
            mask = shard_of == shard
            owner = self._shard_owner[int(shard)]
            per_worker.setdefault(owner, []).append(
                (int(shard), items[mask] - lows[shard],
                 np.nonzero(mask)[0]))
        version_id = self._active.version_id
        responses = self._dispatch(
            lambda worker_id, sequence:
            None if worker_id not in per_worker else
            ("gather", sequence, version_id,
             tuple((shard, local_ids)
                   for shard, local_ids, _ in per_worker[worker_id])))
        rows = np.empty((items.shape[0], self.num_latent))
        for worker_id, chunks in per_worker.items():
            for (_, _, positions), gathered in zip(chunks,
                                                   responses[worker_id]):
                rows[positions] = gathered
        return rows

    def predict_batch(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Predicted ratings for parallel (user, item) index arrays.

        Item rows are gathered from the owning shards; the arithmetic
        matches :meth:`PredictionService.predict_batch` exactly.
        """
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        if users.shape != items.shape:
            raise ValidationError("users and items must align")
        with self._lock:
            self._check_users(users)
            self._check_items(items)
            if users.size == 0:
                return np.empty(0)
            item_rows = self._gather_item_rows(items)
            user_rows = self._active.user_view()[users]
            scores = np.einsum("ij,ij->i", user_rows, item_rows) + self.offset
        if self.clip is not None:
            scores = np.clip(scores, self.clip[0], self.clip[1])
        return scores

    def predict(self, user: int, item: int) -> float:
        """Predicted rating for one (user, item) pair."""
        return float(self.predict_batch(np.array([user]),
                                        np.array([item]))[0])

    # -- cold start and incremental fold-in --------------------------------

    def _append_user_rows(self, rows: np.ndarray) -> None:
        version = self._active
        need = version.n_users + rows.shape[0]
        if need > version.user_capacity:
            old = version.grow_users(need)
            # Workers switch segments through the delta queue; the old
            # segment stays mapped on their side until then, and unlink
            # here only removes the name.
            self._pending_deltas.append(
                ("user-block", version.version_id,
                 version.user_block.descriptor(), need))
            old.destroy()
        else:
            self._pending_deltas.append(
                ("user-count", version.version_id, need))
        version.user_block.view()[version.n_users:need] = rows
        version.n_users = need

    def fold_in(self, items: np.ndarray, values: np.ndarray) -> int:
        """Register an unseen user; semantics match the single service."""
        return self.fold_in_batch([items], [values])[0]

    def fold_in_batch(self, item_lists: Sequence[np.ndarray],
                      value_lists: Sequence[np.ndarray]) -> List[int]:
        """Register several unseen users in one stacked fold-in pass.

        The gateway holds no item factors, so the rated items' rows are
        gathered from the shards into a compact matrix and the indices
        remapped before the stacked fold-in runs.  The batched engine's
        arithmetic only ever sees the gathered rows in per-user order, so
        the resulting factor rows are bit-identical to the full-matrix
        fold-in the single-process service performs.
        """
        with self._lock:
            item_lists = [np.asarray(items, dtype=np.int64).ravel()
                          for items in item_lists]
            value_lists = [np.asarray(vals, dtype=np.float64).ravel()
                           - self.offset for vals in value_lists]
            for items in item_lists:
                self._check_items(items)
            self._ensure_pool()
            all_items = (np.concatenate(item_lists) if item_lists
                         else np.empty(0, dtype=np.int64))
            unique_items = np.unique(all_items)
            if unique_items.size:
                compact = self._gather_item_rows(unique_items)
            else:
                compact = np.empty((0, self.num_latent))
            remapped = [np.searchsorted(unique_items, items)
                        for items in item_lists]
            rows = fold_in_users(compact, self._user_prior, self._alpha,
                                 remapped, value_lists)
            first = self.n_users
            self._append_user_rows(rows)
            self._foldin.register(
                first, item_lists, value_lists,
                lambda items: compact[np.searchsorted(unique_items, items)])
            return list(range(first, first + rows.shape[0]))

    def add_ratings(self, user: int, items: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
        """Rank-k posterior update for a known folded-in user.

        Gathers only the *new* items' factor rows, updates the user's
        sufficient statistics, rewrites their row in the shared user
        segment (visible to every worker through the segment itself — no
        re-registration needed), and returns the new row.
        """
        with self._lock:
            user = int(user)
            items = np.asarray(items, dtype=np.int64).ravel()
            values = np.asarray(values, dtype=np.float64).ravel() - self.offset
            self._check_items(items)
            self._ensure_pool()
            row = self._foldin.update(
                user, self._n_train_users, self.n_users, items, values,
                lambda items: (self._gather_item_rows(items) if items.size
                               else np.empty((0, self.num_latent))))
            self._active.user_block.view()[user] = row
            return row

    # -- hot snapshot swap -------------------------------------------------

    def load_version(self, source: Union[Snapshot, SnapshotLike]) -> int:
        """Validate and atomically activate a new posterior snapshot.

        The snapshot is fully loaded (integrity-checked when read from
        disk), shape-validated against the serving configuration, and
        staged into *fresh* segments before anything is swapped; folded-in
        users are re-folded against the new item factors so they survive
        the swap.  The flip happens under the gateway lock, after which
        the old version's segments are retired — requests never observe a
        half-loaded version.  Returns the new version id.
        """
        snapshot = coerce_snapshot(source)
        staging = PredictionService(snapshot, mode=self.mode,
                                    train=self._train, clip=self.clip)
        if (staging.n_items, staging.num_latent) \
                != (self.n_items, self.num_latent):
            raise ValidationError(
                f"snapshot factors are {staging.n_items} items x "
                f"K={staging.num_latent}, but the cluster serves "
                f"{self.n_items} items x K={self.num_latent}")
        if staging.n_train_users != self._n_train_users:
            raise ValidationError(
                f"snapshot has {staging.n_train_users} training users, "
                f"the cluster serves {self._n_train_users}")
        if staging.offset != self.offset:
            # Folded-in users' stored rating values (and their sufficient
            # statistics) had *this* offset removed; swapping in a
            # re-centred snapshot would silently shift their predictions
            # by the offset delta.  Same invariant PredictionService
            # enforces across pooled snapshots.
            raise ValidationError(
                f"snapshot was centred with offset {staging.offset}, the "
                f"cluster serves offset {self.offset}")

        with self._lock:
            if self._closed:
                raise ValidationError("ShardedScorer is closed")
            # Re-fold every registered cold-start user against the new
            # item factors, preserving their ids (buffer order).
            refreshed = self._foldin.refreshed(staging._item_factors)
            user_factors = staging._user_factors
            if refreshed.states:
                user_factors = np.vstack(
                    [user_factors]
                    + [refreshed.states[user].row()[None, :]
                       for user in sorted(refreshed.states)])
            replacement = _VersionState(
                next(self._version_ids), staging._item_factors,
                self._bounds, user_factors, self._n_train_users,
                staging.offset)
            del staging
            old, self._active = self._active, replacement
            self._pending_deltas.clear()
            self._foldin = refreshed
            if self._pool.started:
                for worker_id in range(self.n_workers):
                    self._pool.send(
                        worker_id,
                        ("load-version", replacement.version_id,
                         replacement.payload(self._owned_shards(worker_id))))
                    self._pool.send(worker_id,
                                    ("retire-version", old.version_id))
            old.destroy()
            self.n_swaps += 1
            return replacement.version_id

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Gateway counters (queries, swaps, deltas, population, pool).

        Includes the :class:`WorkerPool` health counters (respawns after
        dead workers, worker-side registration failures), so the network
        frontend's ``health`` frame can report pool churn.
        """
        counters = {
            "n_queries": self.n_queries,
            "n_batch_dispatches": self.n_batch_dispatches,
            "n_swaps": self.n_swaps,
            "n_deltas_flushed": self.n_deltas_flushed,
            "n_shards": self.n_shards,
            "n_workers": self.n_workers,
            "n_users": self.n_users,
            "n_folded_in": self.n_users - self._n_train_users,
            "version": self.version,
        }
        counters.update(self._pool.stats())
        return counters

    def state_digest(self) -> str:
        """A hex digest of all mutable serving state, bit-exact.

        Same contract as :meth:`PredictionService.state_digest` — the
        in-use user rows plus the fold-in registry — so a sharded
        gateway and a single-process service that absorbed the same
        mutation history digest identically.
        """
        with self._lock:
            payload = hashlib.sha256()
            payload.update(f"{self._n_train_users}:{self.n_users}"
                           .encode("ascii"))
            rows = self._active.user_block.view()[:self.n_users]
            payload.update(np.ascontiguousarray(rows).tobytes())
            payload.update(self._foldin.digest().encode("ascii"))
            return payload.hexdigest()
