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
  (:mod:`repro.sparse.buckets`) and cuts and packs them into item blocks.
  The paper's hybrid method selection survives as *bucket-boundary
  policy*, one regime per bucket:

  - the low-degree (``RANK_ONE``) regime, degree 0 included, is drawn in
    data space: the prior's Cholesky ``Lambda = L L^T`` once per phase,
    one ``d x d`` factor per item formed with elementwise steps over the
    bucket, and the item's existing noise row (see
    :func:`repro.core.updates.sample_item_rank_one`);
  - every other bucket forms its augmented Gram matrices with stacked
    ``matmul`` and factorises them with one stacked ``np.linalg.cholesky``,
    which also yields the forward solve; a bucket in the parallel-Cholesky
    regime splits its Gram accumulation into the row blocks the parallel
    kernel would use.

  Both finish with a ``K``-step back-substitution vectorised over the
  block's items (the shared ``L`` for data-space items).

Both engines consume a pre-drawn ``(n_items, K)`` noise matrix in
canonical item order, one row per item whatever its regime.  Because
``rng.standard_normal((n, k))`` reads the underlying bit stream exactly
like ``n`` successive ``standard_normal(k)`` calls, a sampler that
pre-draws the phase noise and then runs *either* engine sees the same
random stream as the historical per-item loop — this is the
pre-drawn-noise parity trick extended to the batched order.

Per-item arithmetic inside the batched engine uses only per-slice LAPACK
operations (stacked ``matmul``/``cholesky`` apply one routine per slice)
and elementwise ufuncs, so an item's sample does not depend on which other
items share its bucket or block, how large the blocks are, or which thread
or process runs them.  The distributed sampler and the shared-memory
engine exploit this: per-rank subsets and worker-side blocks produce
bitwise-identical rows to the full-matrix plan.
"""

from __future__ import annotations

import math
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

#: Byte budget of one item block: ``BLOCK_BYTES // (8 K^2)`` Gram-path
#: items, so a block's item-last ``(K, K, B)`` factor stack stays near this
#: size; a data-space item needs only ``O(d K)`` bytes, so several times
#: more of them fit.  Buckets larger than a block are cut into row pieces
#: (bounding peak memory); small buckets are packed together (the ``3K``
#: elementwise back-substitution calls are paid once per block, not once
#: per bucket).  On one core 1 MB ran the sparse (K=16) user phase a few
#: percent faster than 2 MB and the dense (K=32) phases equally fast.
BLOCK_BYTES = 1024 * 1024

#: ``parallel_map(func, items)`` calls ``func(item)`` for every item; with
#: ``SamplerOptions(n_threads>1)`` the sampler passes its thread backend's
#: ``map_items`` here.
ParallelMap = Callable[[Callable[[int], None], Sequence[int]], object]

#: Rows ``start:stop`` of one degree bucket — the unit a block is packed from.
Piece = Tuple[DegreeBucket, int, int]


def _pack_blocks(buckets: Sequence[DegreeBucket],
                 item_bytes: Sequence[int]) -> List[List[Piece]]:
    """Cut and pack ``buckets`` into consecutive blocks of at most
    ``BLOCK_BYTES`` (at least one item each), in bucket order;
    ``item_bytes[b]`` is the working set one item of bucket ``b`` needs."""
    blocks: List[List[Piece]] = []
    room = 0
    for bucket, cost in zip(buckets, item_bytes):
        start = 0
        while start < bucket.n_items:
            if room < cost:
                blocks.append([])
                room = max(BLOCK_BYTES, cost)
            stop = min(bucket.n_items, start + room // cost)
            blocks[-1].append((bucket, start, stop))
            room -= (stop - start) * cost
            start = stop
    return blocks


#: A rank-one piece joins the group of the next larger degree in its block
#: when padding it there takes fewer zero rows than this.  Each group pays
#: about ``10 d`` elementwise calls for its factor and solves whatever its
#: size, so tiny buckets (sparse movie phases, rank subsets) share them.
PAD_ROWS = 256


def _pad_groups(pieces: Sequence[Piece]) -> List[List[Piece]]:
    """Group a block's rank-one pieces for the data-space kernel, each
    group led by its largest degree; degree-0 pieces stay alone."""
    groups: List[List[Piece]] = []
    for piece in sorted(pieces, key=lambda piece: -piece[0].degree):
        degree, size = piece[0].degree, piece[2] - piece[1]
        if groups and degree \
                and size * (groups[-1][0][0].degree - degree) < PAD_ROWS:
            groups[-1].append(piece)
        else:
            groups.append([piece])
    return groups


def _back_substitute(factor: np.ndarray, x: np.ndarray) -> None:
    """Solve ``L^T u = x`` in place on item-last arrays: ``factor[i, j]``
    is ``L_ij`` across the items (or ``(K, K, 1)`` for one ``L`` shared by
    all of them) and ``x[i]`` the running right-hand side.  Elementwise
    ufuncs only, so an item's result never depends on its neighbours."""
    scratch = np.empty_like(x)
    for i in range(x.shape[0] - 1, -1, -1):
        np.divide(x[i], factor[i, i], out=x[i])
        if i:
            np.multiply(factor[i, :i], x[i], out=scratch[:i])
            np.subtract(x[:i], scratch[:i], out=x[:i])


class _Phase:
    """What one phase's blocks share: the prior in both kernels' forms and
    the whitened source rows the rank-one pieces read."""

    def __init__(self, engine: "BatchedUpdateEngine", prior: GaussianPrior,
                 alpha: float, source: np.ndarray,
                 buckets: Sequence[DegreeBucket]):
        dtype = engine._dtype
        k = prior.num_latent
        # choose() returns RANK_ONE exactly below rank_one_limit.
        method = engine.update_method
        if method is None:
            self.rank_one_below = engine.policy.rank_one_limit(k)
        else:
            self.rank_one_below = math.inf \
                if method is UpdateMethod.RANK_ONE else 0
        self.alpha = dtype.type(alpha)
        self.inv_alpha = dtype.type(1.0 / alpha)
        self.shift = dtype.type(1.0 / np.sqrt(alpha))
        self.a0 = engine._augmented_prior(prior)
        chol = np.linalg.cholesky(prior.precision)
        self.chol = chol.astype(dtype)
        self.c0 = (chol.T @ prior.mean).astype(dtype)
        # L^-1 x for every source row a rank-one piece reads, by forward
        # substitution (elementwise, so a row's bits never depend on which
        # other rows are whitened with it), compacted: source row r is row
        # position[r] of white.
        read = np.zeros(source.shape[0], dtype=bool)
        for bucket in buckets:
            if bucket.degree and self.rank_one(bucket):
                read[bucket.neighbours] = True
        rows = np.flatnonzero(read)
        self.position = self.white = None
        if not rows.size:
            return
        self.position = np.empty(source.shape[0], dtype=np.intp)
        self.position[rows] = np.arange(rows.size)
        white = source[rows].T.copy()
        scratch = np.empty_like(white)
        for j in range(k):
            np.divide(white[j], self.chol[j, j], out=white[j])
            if j + 1 < k:
                np.multiply(self.chol[j + 1:, j, None], white[j],
                            out=scratch[j + 1:])
                np.subtract(white[j + 1:], scratch[j + 1:], out=white[j + 1:])
        self.white = white.T.copy()

    def rank_one(self, bucket: DegreeBucket) -> bool:
        return bucket.degree < self.rank_one_below

    def item_bytes(self, bucket: DegreeBucket) -> int:
        """One item's working set: its ``K x K`` factor on the Gram path;
        on the rank-one path its ``d + 1`` gathered rows, the right-hand
        side and solve scratch (``K`` each) and the ``d x d`` products."""
        k, d = self.chol.shape[0], bucket.degree
        if self.rank_one(bucket):
            return 8 * (k * (d + 4) + 2 * d * (d + 1))
        return 8 * k * k


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

    def _choose_method(self, degree: int, num_latent: int) -> UpdateMethod:
        if self.update_method is not None:
            return self.update_method
        return self.policy.choose(degree, num_latent)


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
    """Stacked execution: per item block, the low-degree items in data
    space and the others through one stacked Cholesky, then one
    back-substitution per kind.

    A bucket in the rank-one regime (``policy.choose`` gives ``RANK_ONE``
    for its degree and ``K``, or ``RANK_ONE`` is forced) is drawn in data
    space, as :func:`repro.core.updates.sample_item_rank_one` does per
    item: with ``W = X L^-T`` gathered from the whitened source rows
    (``Lambda = L L^T`` factored once per phase), the products with ``W``
    as stacked ``matmul``, one ``d x d`` factor ``W W^T + I/alpha = C C^T``
    per item built by ``O(d)`` elementwise column steps over the bucket,
    two triangular passes with ``C`` and ``C + alpha^-1/2 I``, and
    ``L^-T`` last.  It costs ``O(d K + d^2)`` work per item and no LAPACK
    call; small pieces of a block share their factor steps, padded with
    zero rows, which changes no bit.

    Every other bucket of ``m`` items of degree ``d`` gathers the
    ``(m, d, K+1)`` augmented tensor ``Z = [X | r]`` (neighbour factor rows
    beside the ratings) and computes, for all items at once::

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
    last pivot; ``s`` itself is never used.  Buckets in the
    parallel-Cholesky regime (degree >= ``policy.parallel_threshold``)
    accumulate ``X^T X`` over the same row blocks
    :func:`repro.core.updates.sample_item_parallel_cholesky` uses,
    preserving the paper's blocked-Gram structure at bucket granularity.

    Both kinds end in ``K`` vectorised back-substitution steps over
    item-last arrays with elementwise ufuncs only.  Items are packed into
    blocks of about ``BLOCK_BYTES``: buckets larger than a block are cut
    into row pieces, small ones share a block.  Every item's arithmetic
    depends only on its own row, so the block layout — and hence rank
    subsets, ``parallel_map`` threads and shared-memory workers, which
    each build their own blocks — never changes an output bit.

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
            if self._choose_method(d, k) is UpdateMethod.PARALLEL_CHOLESKY:
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

    def _data_space_rhs(self, group: Sequence[Piece], phase: "_Phase",
                        noise: np.ndarray, out: np.ndarray) -> None:
        """``L^T u`` for the items of one group of rank-one pieces,
        item-last in ``out`` (``K x m``): the data-space draw of
        :func:`repro.core.updates.sample_item_rank_one` before its final
        ``L^-T``.

        With ``c = c0 + alpha W^T r`` (``c0 = L^T mu``) the draw is
        ``c0 + z + W^T (alpha r - C^-T [C^-1 W c + (C + alpha^-1/2 I)^-1
        W z])``, and ``W c = W c0 + alpha W W^T r`` needs no ``c``.  The
        products with ``W`` are stacked ``matmul`` per piece (one BLAS call
        of one shape per item).  The ``d x d`` factor and its solves are
        ``O(d)`` elementwise column steps over the whole group, padded to
        its first (largest) degree: a padded row is zero in ``W W^T``,
        ``W c`` and ``W z`` and factors as an isolated ``alpha^-1/2``
        pivot, so it adds exact zeros to every real entry and padding
        never changes a bit."""
        k, m = out.shape
        d = group[0][0].degree
        items = np.concatenate([bucket.items[start:stop]
                                for bucket, start, stop in group])
        z = np.asarray(noise[items], dtype=self._dtype)
        np.add(phase.c0[:, None], z.T, out=out)
        if d == 0:
            return
        # Item-last and zero-padded: gram = W W^T, solved = [W c, W z].
        gram = np.zeros((d, d, m), dtype=self._dtype)
        solved = np.zeros((2, d, m), dtype=self._dtype)
        ratings = np.zeros((d, m), dtype=self._dtype)
        pieces, column = [], 0
        for bucket, start, stop in group:
            span, own = slice(column, column + stop - start), bucket.degree
            column = span.stop
            # rows[i] = [W; z; c0] and products[i] = rows[i] W^T: W W^T,
            # then (W z)^T and (W c0)^T.
            rows = np.empty((stop - start, own + 2, k), dtype=self._dtype)
            rows[:, own] = z[span]
            rows[:, own + 1] = phase.c0
            columns = phase.position[bucket.neighbours[start:stop]]
            rows[:, :own] = phase.white[columns]
            products = np.matmul(rows, rows[:, :own].transpose(0, 2, 1))
            values = np.ascontiguousarray(bucket.values[start:stop])
            fit = np.matmul(products[:, :own], values[:, :, None])[:, :, 0]
            fit *= phase.alpha
            fit += products[:, own + 1]
            gram[:own, :own, span] = products[:, :own].transpose(1, 2, 0)
            solved[0, :own, span] = fit.T
            solved[1, :own, span] = products[:, own].T
            ratings[:own, span] = values.T
            pieces.append((span, rows[:, :own]))
        diagonal = gram.reshape(d * d, m)[::d + 1]
        diagonal += phase.inv_alpha
        # G = W W^T + I/alpha = C C^T in place (lower), right-looking.
        for j in range(d):
            np.sqrt(gram[j, j], out=gram[j, j])
            if j + 1 < d:
                gram[j + 1:, j] /= gram[j, j]
                tail = gram[j + 1:, j]
                gram[j + 1:, j + 1:] -= tail[:, None] * tail
        # C^-1 W c and (C + alpha^-1/2 I)^-1 W z in one forward pass,
        # then C^-T of their sum.
        pivots = np.stack([diagonal, diagonal + phase.shift])
        for j in range(d):
            solved[:, j] /= pivots[:, j]
            if j + 1 < d:
                solved[:, j + 1:] -= gram[j + 1:, j] * solved[:, j, None]
        back = solved[0] + solved[1]
        for j in range(d - 1, -1, -1):
            back[j] /= gram[j, j]
            if j:
                back[:j] -= gram[j, :j] * back[j]
        weights = ratings * phase.alpha
        weights -= back
        for span, white in pieces:
            own = white.shape[1]
            weight = np.ascontiguousarray(weights[:own, span].T)[:, None]
            out[:, span] += np.matmul(weight, white)[:, 0].T

    def _update_block(self, block: Sequence[Piece], target: np.ndarray,
                      source: np.ndarray, phase: "_Phase",
                      noise: np.ndarray) -> None:
        """Rank-one pieces in data space, the others through one stacked
        Cholesky, then one back-substitution per kind."""
        k = phase.chol.shape[0]
        groups = _pad_groups([piece for piece in block
                              if phase.rank_one(piece[0])])
        gram = [piece for piece in block if not phase.rank_one(piece[0])]
        pieces = [piece for group in groups for piece in group] + gram
        items = np.concatenate([bucket.items[start:stop]
                                for bucket, start, stop in pieces])
        x = np.empty((k, items.shape[0]), dtype=self._dtype)
        n_ranked = 0
        for group in groups:
            size = sum(stop - start for _, start, stop in group)
            self._data_space_rhs(group, phase, noise,
                                 x[:, n_ranked:n_ranked + size])
            n_ranked += size
        if groups:
            _back_substitute(phase.chol[:, :, None], x[:, :n_ranked])
        if not gram:
            target[items] = x.T
            return
        # The Gram stack dies as soon as it is factorised, so the allocator
        # hands its memory to the item-last copy below; keeping it alive
        # too (at a 2 MB budget) made every block fault in fresh pages and
        # the sparse-workload sweep ran 1.7x slower on one core.
        chol = np.linalg.cholesky(self._augmented_grams(
            gram, items.shape[0] - n_ranked, source, phase.a0, phase.alpha))
        # L^T x = y + z on item-last arrays: factor[i, j] is L_ij across
        # the Gram items and x[i] the running right-hand side.
        np.add(chol[:, k, :k].T,
               np.asarray(noise[items[n_ranked:]], dtype=self._dtype).T,
               out=x[:, n_ranked:])
        _back_substitute(chol[:, :k, :k].transpose(1, 2, 0).copy(),
                         x[:, n_ranked:])
        target[items] = x.T

    def _update_buckets(self, buckets: Sequence[DegreeBucket],
                        target: np.ndarray, source: np.ndarray,
                        prior: GaussianPrior, alpha: float,
                        noise: np.ndarray,
                        parallel_map: Optional[ParallelMap] = None) -> None:
        """Update every item of ``buckets`` block by block."""
        phase = _Phase(self, prior, alpha, source, buckets)
        blocks = _pack_blocks(buckets, [phase.item_bytes(bucket)
                                        for bucket in buckets])

        def run_block(index: int) -> None:
            self._update_block(blocks[index], target, source, phase, noise)

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
