"""Update engines: batched (stacked-BLAS) and reference per-item execution.

The three conditional-update kernels in :mod:`repro.core.updates` answer
the paper's Figure 2 question — *which algorithm* updates one item fastest
— but executing them one item at a time from Python caps every sampler on
interpreter overhead long before the linear algebra matters.  This module
factors the *execution strategy* out of the samplers behind a shared
:class:`UpdateEngine` interface with two implementations:

* :class:`ReferenceUpdateEngine` — the original per-item loop calling
  :func:`repro.core.updates.sample_item`.  Kept as the semantic oracle for
  the parity harness and for per-item thread scheduling experiments.
* :class:`BatchedUpdateEngine` — groups items into exact-degree buckets
  (:mod:`repro.sparse.buckets`), cuts and packs them into item blocks,
  forms each block's augmented Gram matrices with stacked ``matmul``,
  factorises them with one stacked ``np.linalg.cholesky`` — which also
  yields the forward solve — and finishes with one back-substitution
  vectorised over the block's items.  The paper's hybrid method selection
  survives as *bucket-boundary policy*: a bucket whose degree falls in the
  parallel-Cholesky regime has its Gram accumulation split into the same
  row blocks the parallel kernel would use, so the blocked summation
  structure (and its parallelism opportunity) is preserved at bucket
  granularity.

Both engines consume a pre-drawn ``(n_items, K)`` noise matrix in
canonical item order.  Because ``rng.standard_normal((n, k))`` reads the
underlying bit stream exactly like ``n`` successive ``standard_normal(k)``
calls, a sampler that pre-draws the phase noise and then runs *either*
engine sees the same random stream as the historical per-item loop — this
is the pre-drawn-noise parity trick extended to the batched order.

Per-item arithmetic inside the batched engine uses only per-slice LAPACK
operations (stacked ``matmul``/``cholesky`` apply one routine per slice)
and elementwise ufuncs, so an item's sample does not depend on which other
items share its bucket or block, how large the blocks are, or which thread
or process runs them.  The distributed sampler and the shared-memory
engine exploit this: per-rank subsets and worker-side blocks produce
bitwise-identical rows to the full-matrix plan.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.priors import GaussianPrior
from repro.core.updates import HybridUpdatePolicy, UpdateMethod, sample_item
from repro.sparse.buckets import BucketPlan, DegreeBucket, cached_bucket_plan
from repro.sparse.csr import CompressedAxis
from repro.utils.validation import ValidationError

__all__ = [
    "UpdateEngine",
    "ReferenceUpdateEngine",
    "BatchedUpdateEngine",
    "available_engines",
    "make_update_engine",
]

#: Dtypes an engine may compute in.  ``float64`` (default) preserves the
#: bit-exact parity guarantees; ``float32`` halves memory bandwidth on the
#: stacked kernels at the cost of ~1e-4-relative agreement with the
#: reference chain.
COMPUTE_DTYPES = ("float64", "float32")

#: Byte budget of one item block: ``BLOCK_BYTES // (8 K^2)`` items, so a
#: block's item-last ``(K, K, B)`` factor stack stays near this size.
#: Buckets larger than a block are cut into row pieces (bounding peak
#: memory); small buckets are packed together (the ``3K`` elementwise
#: back-substitution calls are paid once per block, not once per bucket).
#: On one core 1 MB ran the sparse (K=16) user phase a few percent faster
#: than 2 MB and the dense (K=32) phases equally fast.
BLOCK_BYTES = 1024 * 1024

#: ``parallel_map(func, items)`` calls ``func(item)`` for every item; with
#: ``SamplerOptions(n_threads>1)`` the sampler passes its thread backend's
#: ``map_items`` here.
ParallelMap = Callable[[Callable[[int], None], Sequence[int]], object]

#: Rows ``start:stop`` of one degree bucket — the unit a block is packed from.
Piece = Tuple[DegreeBucket, int, int]


def _pack_blocks(buckets: Sequence[DegreeBucket],
                 num_latent: int) -> List[List[Piece]]:
    """Cut and pack ``buckets`` into consecutive blocks of at most
    ``BLOCK_BYTES // (8 K^2)`` items, in bucket order."""
    size = max(1, BLOCK_BYTES // (8 * num_latent * num_latent))
    blocks: List[List[Piece]] = []
    room = 0
    for bucket in buckets:
        start = 0
        while start < bucket.n_items:
            if room == 0:
                blocks.append([])
                room = size
            stop = min(bucket.n_items, start + room)
            blocks[-1].append((bucket, start, stop))
            room -= stop - start
            start = stop
    return blocks


class UpdateEngine:
    """Executes one full phase of conditional factor updates.

    A *phase* resamples every item of one entity class (all movies, or all
    users) from its conditional Gaussian, holding the other class's factors
    fixed.  Engines differ only in execution strategy; all draw from the
    same distribution and consume the same noise rows.

    Subclasses implement :meth:`update_items`.
    """

    #: Registry name (``SamplerOptions.engine`` value selecting this engine).
    name: str = ""

    #: True when the engine schedules its own parallel execution (the
    #: shared-memory process backend); samplers must then pass
    #: ``parallel_map=None`` instead of wrapping it in a thread pool.
    manages_parallelism: bool = False

    def __init__(self, update_method: Optional[UpdateMethod] = None,
                 policy: Optional[HybridUpdatePolicy] = None,
                 compute_dtype: str = "float64"):
        if compute_dtype not in COMPUTE_DTYPES:
            raise ValidationError(
                f"compute_dtype must be one of {COMPUTE_DTYPES}, "
                f"got {compute_dtype!r}")
        self.update_method = update_method
        self.policy = policy or HybridUpdatePolicy()
        self.compute_dtype = compute_dtype
        self._dtype = np.dtype(compute_dtype)

    def close(self) -> None:
        """Release engine-owned resources (worker pools, shared memory).

        A no-op for in-process engines.  Safe to call repeatedly; an engine
        remains usable after ``close`` (resources are re-acquired lazily).
        The samplers call this in a ``finally`` around their sweep loop so
        an interrupted run never leaks.
        """

    def __enter__(self) -> "UpdateEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def update_items(self, target: np.ndarray, source: np.ndarray,
                     axis: CompressedAxis, prior: GaussianPrior, alpha: float,
                     noise: np.ndarray, items: Optional[np.ndarray] = None,
                     parallel_map: Optional[ParallelMap] = None) -> int:
        """Resample factor rows of ``target`` in place; returns items updated.

        Parameters
        ----------
        target:
            ``(n_items, K)`` factor matrix being resampled (written).
        source:
            The other entity class's factor matrix (read-only this phase).
        axis:
            Compressed view mapping each target item to its rating partners
            (``ratings.by_movie`` for the movie phase, ``by_user`` for users).
        prior:
            Current Gaussian prior of the target entity class.
        alpha:
            Observation precision.
        noise:
            ``(n_items, K)`` standard-normal rows, indexed by *global* item
            id — item ``i`` always consumes ``noise[i]`` regardless of
            execution order, which is what makes every engine/backend
            combination reproduce the same chain.
        items:
            Optional subset of item indices to update (the distributed
            sampler passes each rank's owned items); default all.
        parallel_map:
            Optional ``map(func, indices)`` used to execute independent
            units (items for the reference engine, item blocks for the
            batched engine) concurrently.  Default: a plain loop.
        """
        raise NotImplementedError

    def _choose_method(self, degree: int) -> UpdateMethod:
        if self.update_method is not None:
            return self.update_method
        return self.policy.choose(degree)


class ReferenceUpdateEngine(UpdateEngine):
    """The original per-item Python loop (semantic oracle for parity tests)."""

    name = "reference"

    def __init__(self, update_method: Optional[UpdateMethod] = None,
                 policy: Optional[HybridUpdatePolicy] = None,
                 compute_dtype: str = "float64"):
        if compute_dtype != "float64":
            # The per-item kernels are float64-only; a silently ignored
            # reduced-precision request would invalidate parity baselines.
            raise ValidationError(
                "the reference engine always computes in float64; "
                f"got compute_dtype={compute_dtype!r}")
        super().__init__(update_method, policy, compute_dtype)

    def update_items(self, target, source, axis, prior, alpha, noise,
                     items=None, parallel_map=None):
        if items is None:
            items = range(axis.n)

        def update(item: int) -> None:
            idx, values = axis.slice(item)
            target[item] = sample_item(
                source[idx], values, prior, alpha, noise=noise[item],
                method=self.update_method, policy=self.policy)

        if parallel_map is None:
            for item in items:
                update(int(item))
        else:
            parallel_map(update, items)
        return len(items)


class BatchedUpdateEngine(UpdateEngine):
    """Stacked-BLAS execution: one Cholesky and one triangular solve per
    item block.

    For ``m`` items of degree ``d`` the engine gathers the ``(m, d, K+1)``
    augmented tensor ``Z = [X | r]`` (neighbour factor rows beside the
    ratings) and computes, for all items at once::

        A0 = [[Lambda,       Lambda mu      ],      (once per phase)
              [mu^T Lambda,  1 + mu^T Lambda mu]]
        A  = A0 + alpha * Z^T Z                     (stacked matmul)
           = [[precision, rhs], [rhs^T, c]]
        cholesky(A) = [[L, 0], [y^T, s]]            (stacked potrf)
        sample = L^-T (y + z)                       (back-substitution)

    The factor's top-left block is ``L = chol(precision)`` and its last row
    is ``y = L^-1 rhs``, so the forward solve comes out of the factorisation
    and ``L^-T y`` is the conditional mean.  Before factorising, the corner
    ``c`` is doubled: the Schur complement ``s^2 = c - |y|^2`` then exceeds
    half the corner, so no precision (float32 included) can fail on the
    last pivot; ``s`` itself is never used.  The back-substitution runs
    ``K`` vectorised steps over an item-last ``(K, K, B)`` block with
    elementwise ufuncs only.

    Items are processed in blocks of ``BLOCK_BYTES // (8 K^2)``: buckets
    larger than a block are cut into row pieces, small ones are packed into
    a shared block.  Every item's arithmetic depends only on its own row, so
    the block layout — and hence rank subsets, ``parallel_map`` threads and
    shared-memory workers, which each build their own blocks — never
    changes an output bit.

    Buckets in the parallel-Cholesky regime (degree >=
    ``policy.parallel_threshold``) accumulate ``X^T X`` over the same row
    blocks :func:`repro.core.updates.sample_item_parallel_cholesky` uses,
    preserving the paper's blocked-Gram structure at bucket granularity.
    The method selection (forced or policy-chosen) controls *only* that
    accumulation structure: this engine never runs the incremental
    rank-one kernel — a bucket in the rank-one regime (or with a forced
    ``RANK_ONE``) takes the single-pass Gram path, which samples the same
    distribution at lower cost.  Experiments that need the literal
    per-kernel execution (e.g. Figure 2 timings) must use the reference
    engine.

    Bucket plans are structural (sparsity-only) and cached per
    ``(axis, items)`` pair in the module-level cache of
    :mod:`repro.sparse.buckets`, so repeated sweeps — and *other* engine
    instances touching the same axis — pay no planning cost.

    ``compute_dtype`` selects the arithmetic precision of the stacked
    kernels.  ``float64`` (default) keeps the parity guarantees;
    ``float32`` halves the memory traffic of the gather and matmul passes
    and agrees with the float64 chain to single-precision tolerance
    (factor rows are cast back to the target's dtype on store).
    """

    name = "batched"

    # -- planning ---------------------------------------------------------

    def _plan_for(self, axis: CompressedAxis,
                  items: Optional[np.ndarray]) -> BucketPlan:
        return cached_bucket_plan(axis, items, value_dtype=self._dtype)

    # -- the batched kernel ----------------------------------------------

    def _augmented_prior(self, prior: GaussianPrior) -> np.ndarray:
        """``A0``, the prior part of every augmented Gram, in the compute
        dtype (built once per phase)."""
        k = prior.num_latent
        precision = np.asarray(prior.precision, dtype=self._dtype)
        mean = np.asarray(prior.mean, dtype=self._dtype)
        weighted = precision @ mean
        a0 = np.empty((k + 1, k + 1), dtype=self._dtype)
        a0[:k, :k] = precision
        a0[:k, k] = weighted
        a0[k, :k] = weighted
        a0[k, k] = 1 + mean @ weighted
        return a0

    def _augmented_grams(self, block: Sequence[Piece], n_items: int,
                         source: np.ndarray, a0: np.ndarray,
                         alpha) -> np.ndarray:
        """``A0 + alpha Z^T Z`` for every item of the block, corner
        doubled; ``source`` and the bucket values must already be in the
        compute dtype (``update_items`` and the shared-memory workers
        guarantee this)."""
        k = a0.shape[0] - 1
        aug = np.empty((n_items, k + 1, k + 1), dtype=self._dtype)
        row = 0
        for bucket, start, stop in block:
            d = bucket.degree
            out = aug[row:row + stop - start]
            row += stop - start
            if d == 0:
                out[...] = a0
                continue
            z = np.empty((stop - start, d, k + 1), dtype=self._dtype)
            z[:, :, :k] = source[bucket.neighbours[start:stop]]
            z[:, :, k] = bucket.values[start:stop]
            if self._choose_method(d) is UpdateMethod.PARALLEL_CHOLESKY:
                # Mirror the parallel kernel's blocked Gram accumulation.
                out[...] = a0
                n_blocks = min(self.policy.n_subtasks(d), d)
                for rows in np.array_split(np.arange(d), n_blocks):
                    sub = z[:, rows, :]
                    out += alpha * (sub.transpose(0, 2, 1) @ sub)
            else:
                np.matmul(z.transpose(0, 2, 1), z, out=out)
                out *= alpha
                out += a0
        aug[:, k, k] *= 2  # Schur complement >= half the corner: see class
        return aug

    def _update_block(self, block: Sequence[Piece], target: np.ndarray,
                      source: np.ndarray, a0: np.ndarray, alpha,
                      noise: np.ndarray) -> None:
        """One Cholesky and one back-substitution for a block of pieces."""
        k = a0.shape[0] - 1
        items = np.concatenate([bucket.items[start:stop]
                                for bucket, start, stop in block])
        # The Gram stack dies as soon as it is factorised, so the allocator
        # hands its memory to the item-last copy below; keeping it alive
        # too (at a 2 MB budget) made every block fault in fresh pages and
        # the sparse-workload sweep ran 1.7x slower on one core.
        chol = np.linalg.cholesky(self._augmented_grams(
            block, items.shape[0], source, a0, alpha))

        # L^T x = y + z on item-last arrays: factor[i, j] is L_ij across
        # the block's items and x[i] the running right-hand side.
        factor = chol[:, :k, :k].transpose(1, 2, 0).copy()
        x = np.empty((k, items.shape[0]), dtype=self._dtype)
        np.add(chol[:, k, :k].T,
               np.asarray(noise[items], dtype=self._dtype).T, out=x)
        scratch = np.empty_like(x)
        for i in range(k - 1, -1, -1):
            np.divide(x[i], factor[i, i], out=x[i])
            if i:
                np.multiply(factor[i, :i], x[i], out=scratch[:i])
                np.subtract(x[:i], scratch[:i], out=x[:i])
        target[items] = x.T

    def _update_buckets(self, buckets: Sequence[DegreeBucket],
                        target: np.ndarray, source: np.ndarray,
                        prior: GaussianPrior, alpha: float,
                        noise: np.ndarray,
                        parallel_map: Optional[ParallelMap] = None) -> None:
        """Update every item of ``buckets`` block by block."""
        a0 = self._augmented_prior(prior)
        alpha = self._dtype.type(alpha)
        blocks = _pack_blocks(buckets, prior.num_latent)

        def run_block(index: int) -> None:
            self._update_block(blocks[index], target, source, a0, alpha,
                               noise)

        if parallel_map is None:
            for index in range(len(blocks)):
                run_block(index)
        else:
            # Blocks touch disjoint target rows, so they are race-free units.
            parallel_map(run_block, range(len(blocks)))

    def update_items(self, target, source, axis, prior, alpha, noise,
                     items=None, parallel_map=None):
        plan = self._plan_for(axis, items)
        self._update_buckets(plan.buckets, target,
                             np.asarray(source, dtype=self._dtype), prior,
                             alpha, noise, parallel_map)
        return plan.n_planned_items


def _engine_registry():
    # The shared-memory engine subclasses BatchedUpdateEngine, so its module
    # imports this one; resolving the registry lazily breaks that cycle.
    from repro.core.shared_engine import SharedMemoryUpdateEngine

    return {
        ReferenceUpdateEngine.name: ReferenceUpdateEngine,
        BatchedUpdateEngine.name: BatchedUpdateEngine,
        SharedMemoryUpdateEngine.name: SharedMemoryUpdateEngine,
    }


def available_engines() -> Tuple[str, ...]:
    """Names accepted by ``SamplerOptions.engine`` and friends."""
    return tuple(_engine_registry())


def make_update_engine(engine: str,
                       update_method: Optional[UpdateMethod] = None,
                       policy: Optional[HybridUpdatePolicy] = None,
                       compute_dtype: str = "float64",
                       n_workers: Optional[int] = None) -> UpdateEngine:
    """Instantiate an update engine by registry name.

    ``engine`` is ``"batched"`` (default everywhere), ``"reference"`` (the
    per-item oracle) or ``"shared"`` (the zero-copy shared-memory process
    backend).  ``compute_dtype`` selects the kernel precision (rejected by
    the float64-only reference engine); ``n_workers`` is only meaningful
    for ``"shared"`` and is rejected otherwise rather than silently
    ignored.
    """
    registry = _engine_registry()
    if engine not in registry:
        raise ValidationError(
            f"unknown update engine {engine!r}; "
            f"available: {', '.join(registry)}")
    kwargs = dict(update_method=update_method, policy=policy,
                  compute_dtype=compute_dtype)
    if registry[engine].manages_parallelism:
        kwargs["n_workers"] = n_workers
    elif n_workers is not None:
        raise ValidationError(
            f"engine {engine!r} does not take n_workers "
            "(only the 'shared' process backend does)")
    return registry[engine](**kwargs)
