"""Degree-bucket planning for batched conditional updates.

The batched update engine (:mod:`repro.core.batch_engine`) replaces the
per-item Python loop with stacked BLAS/LAPACK calls.  Stacking requires
rectangular gathers: every item in a batch must contribute the same number
of neighbour rows.  This module groups the elements of a
:class:`repro.sparse.csr.CompressedAxis` by their exact degree (rating
count) and precomputes, for every group, the index matrices needed to
gather the neighbour factor blocks and rating values in one fancy-indexing
operation.

The plan is purely structural — it depends only on the sparsity pattern,
never on factor values — so it is built once per rating matrix (or per
rank-owned subset in the distributed sampler) and reused for every Gibbs
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.sparse.csr import CompressedAxis
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "DegreeBucket",
    "BucketPlan",
    "build_bucket_plan",
    "cached_bucket_plan",
    "SuperBucketMember",
    "SuperBucket",
    "SuperBucketPlan",
    "fuse_bucket_plan",
]


@dataclass(frozen=True)
class DegreeBucket:
    """All axis elements that share one exact degree.

    Attributes
    ----------
    degree:
        Number of stored entries of every item in this bucket.
    items:
        ``(m,)`` axis indices of the bucket members (ascending).
    neighbours:
        ``(m, degree)`` other-axis indices: row ``i`` lists the rating
        partners of ``items[i]``.  Gathering ``factors[neighbours]`` yields
        the stacked ``(m, degree, K)`` factor blocks in one operation.
    values:
        ``(m, degree)`` rating values aligned with ``neighbours``.
    """

    degree: int
    items: np.ndarray
    neighbours: np.ndarray
    values: np.ndarray

    @property
    def n_items(self) -> int:
        return int(self.items.shape[0])


@dataclass(frozen=True)
class BucketPlan:
    """The complete degree-bucket decomposition of one compressed axis.

    ``buckets`` are ordered by ascending degree and partition the planned
    items exactly: every item appears in exactly one bucket.
    """

    n_items: int
    buckets: Tuple[DegreeBucket, ...]

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    @property
    def n_planned_items(self) -> int:
        """Number of items covered by the plan (== subset size)."""
        return int(sum(bucket.n_items for bucket in self.buckets))

    def degrees(self) -> np.ndarray:
        """Distinct degrees present, ascending."""
        return np.array([bucket.degree for bucket in self.buckets], dtype=np.int64)


def build_bucket_plan(axis: CompressedAxis,
                      items: Optional[np.ndarray] = None) -> BucketPlan:
    """Group ``axis`` elements (or a subset) into exact-degree buckets.

    Parameters
    ----------
    axis:
        The compressed axis to plan over (``by_movie`` for the movie phase,
        ``by_user`` for the user phase).
    items:
        Optional subset of axis indices to plan (the distributed sampler
        passes each rank's owned items); defaults to all of them.

    Returns
    -------
    A :class:`BucketPlan` whose buckets jointly cover ``items`` exactly
    once each, ordered by ascending degree.
    """
    if items is None:
        items = np.arange(axis.n, dtype=np.int64)
    else:
        items = np.asarray(items, dtype=np.int64)
        if items.ndim != 1:
            raise ValidationError("items must be a 1-D index array")
        if items.size and (items.min() < 0 or items.max() >= axis.n):
            raise ValidationError(
                f"items contains indices outside [0, {axis.n})")
        if np.unique(items).shape[0] != items.shape[0]:
            raise ValidationError("items contains duplicate indices")

    degrees = np.diff(axis.indptr)[items] if items.size else np.empty(0, np.int64)
    buckets: List[DegreeBucket] = []
    for degree in np.unique(degrees):
        degree = int(degree)
        members = np.sort(items[degrees == degree])
        starts = axis.indptr[members].astype(np.int64)
        # (m, degree) flat positions into indices/values; empty for degree 0.
        gather = starts[:, None] + np.arange(degree, dtype=np.int64)[None, :]
        buckets.append(DegreeBucket(
            degree=degree,
            items=members,
            neighbours=axis.indices[gather],
            values=np.ascontiguousarray(axis.values[gather],
                                        dtype=np.float64),
        ))
    return BucketPlan(n_items=axis.n, buckets=tuple(buckets))


# ---------------------------------------------------------------------------
# per-axis plan memo
# ---------------------------------------------------------------------------

def cached_bucket_plan(axis: CompressedAxis,
                       items: Optional[np.ndarray] = None) -> BucketPlan:
    """Build (or reuse) the bucket plan for one ``(axis, items)`` pair.

    Plans are structural, so every engine instance touching the same axis
    object — repeated sweeps of one sampler, the per-rank subsets of the
    distributed sampler — shares one plan instead of re-deriving it.  The
    memo lives on the axis, keyed by the items' bytes: axes are immutable,
    so a changed matrix is a new object and misses by construction, and
    its plans die with it.  Nothing iterates or evicts the memo, so it
    needs no lock; ``setdefault`` hands racing threads one plan.
    """
    key = None if items is None else np.asarray(items, np.int64).tobytes()
    plan = axis.plan_memo.get(key)
    if plan is None:
        plan = axis.plan_memo.setdefault(key, build_bucket_plan(axis, items))
    return plan


# ---------------------------------------------------------------------------
# super-bucket fusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperBucketMember:
    """One exact-degree run inside a fused super-bucket.

    Rows ``[row_offset, row_offset + n_items)`` of the super-bucket's padded
    block belong to items of exactly this ``degree``; the kernel reads only
    the first ``degree`` columns of those rows.
    """

    degree: int
    row_offset: int
    n_items: int


@dataclass(frozen=True)
class SuperBucket:
    """Several exact-degree buckets fused into one rectangular task.

    Dispatching one task per exact-degree bucket drowns small buckets in
    per-task overhead (a queue round-trip costs as much as updating dozens
    of light items).  A super-bucket stacks consecutive ascending-degree
    buckets into a single ``(n_items, pad_degree)`` block — shorter rows are
    padded with index 0 / value 0.0 — so one dispatch covers them all.  The
    padding is *layout only*: the kernel slices each member back to its
    exact degree, so the arithmetic (and hence the sampled chain) is
    bit-identical to running the member buckets separately.

    Attributes
    ----------
    pad_degree:
        Column count of the padded block (the largest member degree).
    items:
        ``(n_items,)`` axis indices, member runs concatenated in ascending
        degree order.
    neighbours, values:
        ``(n_items, pad_degree)`` padded gather blocks aligned with
        ``items``.
    members:
        Exact-degree runs partitioning the rows, ascending by degree.
    cost:
        Estimated update cost in cost-model units (used for worker
        assignment).
    """

    pad_degree: int
    items: np.ndarray
    neighbours: np.ndarray
    values: np.ndarray
    members: Tuple[SuperBucketMember, ...]
    cost: float

    @property
    def n_items(self) -> int:
        return int(self.items.shape[0])


@dataclass(frozen=True)
class SuperBucketPlan:
    """The fused decomposition of one :class:`BucketPlan`."""

    n_items: int
    super_buckets: Tuple[SuperBucket, ...]

    @property
    def n_super_buckets(self) -> int:
        return len(self.super_buckets)

    @property
    def n_planned_items(self) -> int:
        return int(sum(sb.n_items for sb in self.super_buckets))

    def assign_workers(self, n_workers: int) -> List[List[int]]:
        """Deterministic longest-processing-time worker assignment.

        Super-buckets are assigned, descending by estimated cost, to the
        currently least-loaded worker (ties broken by lowest worker index).
        The result depends only on the plan and ``n_workers`` — never on
        timing — which is what keeps a shared-memory run reproducible and
        debuggable: the same phase always executes the same work on the
        same worker.
        """
        check_positive("n_workers", n_workers)
        order = sorted(range(len(self.super_buckets)),
                       key=lambda i: (-self.super_buckets[i].cost, i))
        loads = [0.0] * n_workers
        assignment: List[List[int]] = [[] for _ in range(n_workers)]
        for index in order:
            worker = min(range(n_workers), key=lambda w: (loads[w], w))
            assignment[worker].append(index)
            loads[worker] += self.super_buckets[index].cost
        return assignment


def _bucket_cost(n_items: int, degree: int, num_latent: int) -> float:
    """Rough flop count of one stacked bucket update.

    Gram accumulation is ``d * K^2`` per item, the augmented factorisation
    (which includes the forward solve) plus the back-substitution
    ``~K^3 / 3 + 2 K^2``; constants are irrelevant because the estimate is
    only used to *balance* tasks, never to time them.
    """
    k = float(num_latent)
    return float(n_items) * (float(degree) * k * k + (k ** 3) / 3.0 + 2 * k * k)


def fuse_bucket_plan(plan: BucketPlan, num_latent: int,
                     grain: float | None = None,
                     n_tasks_hint: int = 64,
                     max_pad_ratio: float = 0.25) -> SuperBucketPlan:
    """Fuse a plan's exact-degree buckets into degree-padded super-buckets.

    Buckets are walked in ascending degree order and greedily packed into
    the current super-bucket until it reaches the cost ``grain``; a bucket
    is also cut off when padding its rows to the super-bucket's width would
    waste more than ``max_pad_ratio`` of the block (so a degree-500 bucket
    never pads a degree-2 run to 500 columns).  Buckets larger than the
    grain are *split* into row chunks, each its own super-bucket, so one
    dominant degree cannot serialise a whole phase on a single worker.

    ``grain`` defaults to ``total_cost / n_tasks_hint``: enough tasks for
    load balance, few enough that per-task dispatch overhead stays
    amortised.
    """
    check_positive("num_latent", num_latent)
    check_positive("n_tasks_hint", n_tasks_hint)
    check_positive("max_pad_ratio", max_pad_ratio)
    buckets = [bucket for bucket in plan.buckets]
    total = sum(_bucket_cost(b.n_items, b.degree, num_latent) for b in buckets)
    if grain is None:
        grain = max(total / float(n_tasks_hint), 1.0)
    check_positive("grain", grain)

    super_buckets: List[SuperBucket] = []
    pending: List[DegreeBucket] = []
    pending_cost = 0.0

    def emit_pending() -> None:
        nonlocal pending, pending_cost
        if not pending:
            return
        pad = pending[-1].degree  # ascending order: last member is widest
        n_rows = sum(bucket.n_items for bucket in pending)
        items = np.concatenate([bucket.items for bucket in pending])
        neighbours = np.zeros((n_rows, pad), dtype=np.int64)
        values = np.zeros((n_rows, pad), dtype=pending[0].values.dtype)
        members: List[SuperBucketMember] = []
        row = 0
        for bucket in pending:
            m, d = bucket.n_items, bucket.degree
            neighbours[row:row + m, :d] = bucket.neighbours
            values[row:row + m, :d] = bucket.values
            members.append(SuperBucketMember(degree=d, row_offset=row,
                                             n_items=m))
            row += m
        super_buckets.append(SuperBucket(
            pad_degree=pad, items=items, neighbours=neighbours,
            values=values, members=tuple(members), cost=pending_cost))
        pending, pending_cost = [], 0.0

    for bucket in buckets:
        cost = _bucket_cost(bucket.n_items, bucket.degree, num_latent)
        per_item = cost / max(bucket.n_items, 1)
        if cost >= grain and bucket.n_items > 1:
            # A dominant bucket: flush the accumulator, then split this
            # bucket's rows into roughly grain-sized chunks of its own.
            emit_pending()
            n_chunks = min(bucket.n_items,
                           max(1, int(round(cost / grain))))
            for rows in np.array_split(np.arange(bucket.n_items), n_chunks):
                chunk = DegreeBucket(
                    degree=bucket.degree,
                    items=bucket.items[rows],
                    neighbours=bucket.neighbours[rows],
                    values=bucket.values[rows],
                )
                pending = [chunk]
                pending_cost = per_item * len(rows)
                emit_pending()
            continue
        if pending:
            # Padding every pending row out to this bucket's degree must not
            # waste more than max_pad_ratio of the fused block.
            pending_rows = sum(b.n_items for b in pending)
            real = sum(b.n_items * b.degree for b in pending) \
                + bucket.n_items * bucket.degree
            padded = (pending_rows + bucket.n_items) * bucket.degree
            waste = (padded - real) / max(padded, 1)
            if pending_cost + cost > grain or waste > max_pad_ratio:
                emit_pending()
        pending.append(bucket)
        pending_cost += cost
    emit_pending()
    return SuperBucketPlan(n_items=plan.n_items,
                           super_buckets=tuple(super_buckets))
