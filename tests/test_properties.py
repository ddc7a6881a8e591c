"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.batch_engine import BatchedUpdateEngine, ReferenceUpdateEngine
from repro.core.priors import GaussianPrior, NormalWishartPrior
from repro.core.updates import (
    cholesky_rank_one_update,
    conditional_distribution,
    sample_item_parallel_cholesky,
    sample_item_rank_one,
    sample_item_serial_cholesky,
)
from repro.core.wishart import normal_wishart_posterior, sample_wishart
from repro.distributed.comm_plan import build_comm_plan, send_schedule
from repro.distributed.partition import Partition
from repro.parallel.simulator import SimTask
from repro.parallel.static_scheduler import StaticScheduler
from repro.parallel.work_stealing import WorkStealingScheduler
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import RatingMatrix
from repro.sparse.reorder import balanced_block_order
from repro.sparse.split import train_test_split

# Keep hypothesis fast and deterministic for CI-style runs.
COMMON_SETTINGS = settings(max_examples=30, deadline=None)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def sparse_triplets(draw, max_rows=12, max_cols=10, max_nnz=40):
    """Random COO triplets (possibly with duplicates) plus dense shape."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    values = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=nnz,
                           max_size=nnz))
    return n_rows, n_cols, rows, cols, values


@st.composite
def spd_matrix_and_vector(draw, max_dim=6):
    """A random symmetric positive-definite matrix and a vector."""
    dim = draw(st.integers(1, max_dim))
    entries = draw(hnp.arrays(np.float64, (dim, dim),
                              elements=st.floats(-2, 2, allow_nan=False)))
    spd = entries @ entries.T + (dim + 1.0) * np.eye(dim)
    vector = draw(hnp.arrays(np.float64, (dim,),
                             elements=st.floats(-3, 3, allow_nan=False)))
    return spd, vector


# ---------------------------------------------------------------------------
# sparse substrate
# ---------------------------------------------------------------------------

class TestSparseProperties:
    @COMMON_SETTINGS
    @given(sparse_triplets())
    def test_csr_csc_views_always_agree(self, triplets):
        n_rows, n_cols, rows, cols, values = triplets
        coo = CooMatrix.from_arrays(n_rows, n_cols, np.array(rows, dtype=np.int64),
                                    np.array(cols, dtype=np.int64),
                                    np.array(values))
        matrix = RatingMatrix.from_coo(coo)
        # nnz consistent across views; degree sums equal.
        assert matrix.by_user.nnz == matrix.by_movie.nnz == matrix.nnz
        assert matrix.user_degrees().sum() == matrix.movie_degrees().sum()
        # Dense reconstruction agrees with de-duplicated COO.
        np.testing.assert_allclose(np.nan_to_num(matrix.to_dense()),
                                   np.nan_to_num(coo.deduplicate().to_dense()))

    @COMMON_SETTINGS
    @given(sparse_triplets())
    def test_transpose_is_involution(self, triplets):
        n_rows, n_cols, rows, cols, values = triplets
        matrix = RatingMatrix.from_coo(CooMatrix.from_arrays(
            n_rows, n_cols, np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(values)))
        twice = matrix.transpose().transpose()
        np.testing.assert_allclose(np.nan_to_num(twice.to_dense()),
                                   np.nan_to_num(matrix.to_dense()))

    @COMMON_SETTINGS
    @given(sparse_triplets(), st.floats(0.0, 0.9), st.integers(0, 1000))
    def test_split_partitions_without_loss(self, triplets, fraction, seed):
        n_rows, n_cols, rows, cols, values = triplets
        matrix = RatingMatrix.from_coo(CooMatrix.from_arrays(
            n_rows, n_cols, np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(values)))
        split = train_test_split(matrix, test_fraction=fraction, seed=seed)
        assert split.train.nnz + split.n_test == matrix.nnz
        # Test cells never appear in the training matrix.
        train_dense = split.train.to_dense()
        for u, m in zip(split.test_users, split.test_movies):
            assert np.isnan(train_dense[u, m])

    @COMMON_SETTINGS
    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=60),
           st.integers(1, 8))
    def test_balanced_blocks_are_contiguous_and_complete(self, costs, n_blocks):
        blocks = balanced_block_order(np.array(costs), n_blocks)
        assert blocks.shape == (len(costs),)
        assert (np.diff(blocks) >= 0).all()
        assert blocks.min() == 0
        assert blocks.max() <= n_blocks - 1


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

class TestNumericProperties:
    @COMMON_SETTINGS
    @given(spd_matrix_and_vector())
    def test_cholesky_rank_one_update_correct(self, case):
        spd, vector = case
        updated = cholesky_rank_one_update(np.linalg.cholesky(spd), vector)
        np.testing.assert_allclose(updated @ updated.T,
                                   spd + np.outer(vector, vector),
                                   rtol=1e-8, atol=1e-8)
        # The factor stays lower triangular with a positive diagonal.
        assert np.allclose(updated, np.tril(updated))
        assert (np.diag(updated) > 0).all()

    @COMMON_SETTINGS
    @given(st.integers(1, 5), st.integers(0, 25), st.integers(0, 2**31 - 1))
    def test_update_kernels_always_agree(self, affine_map, k, n_ratings,
                                         seed):
        rng = np.random.default_rng(seed)
        neighbours = rng.normal(size=(n_ratings, k))
        ratings = rng.normal(size=n_ratings)
        prior = GaussianPrior(mean=rng.normal(size=k),
                              precision=np.eye(k) * rng.uniform(0.5, 3.0))
        noise = rng.standard_normal(k)
        serial = sample_item_serial_cholesky(neighbours, ratings, prior, 2.0,
                                             noise=noise)
        parallel = sample_item_parallel_cholesky(neighbours, ratings, prior, 2.0,
                                                 noise=noise, n_blocks=3)
        np.testing.assert_allclose(parallel, serial, rtol=1e-6, atol=1e-6)
        assert np.isfinite(serial).all()
        # The rank-one kernel takes another square root of the same
        # conditional: u(z) = mean + J z with the same mean and J J^T.
        mean, root = affine_map(sample_item_serial_cholesky, neighbours,
                                ratings, prior, 2.0)
        rank_one_mean, rank_one_root = affine_map(
            sample_item_rank_one, neighbours, ratings, prior, 2.0)
        np.testing.assert_allclose(rank_one_mean, mean, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(rank_one_root @ rank_one_root.T,
                                   root @ root.T, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(
            sample_item_rank_one(neighbours, ratings, prior, 2.0, noise=noise),
            rank_one_mean + rank_one_root @ noise, rtol=1e-6, atol=1e-6)

    @COMMON_SETTINGS
    @given(st.integers(1, 5), st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_conditional_precision_is_positive_definite(self, k, n_ratings, seed):
        rng = np.random.default_rng(seed)
        neighbours = rng.normal(size=(n_ratings, k))
        ratings = rng.normal(size=n_ratings)
        prior = GaussianPrior.standard(k)
        mean, chol = conditional_distribution(neighbours, ratings, prior, 2.0)
        assert np.isfinite(mean).all()
        assert (np.diag(chol) > 0).all()

    @COMMON_SETTINGS
    @given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**31 - 1),
           st.floats(0.1, 10.0))
    def test_conditional_precision_spd_and_symmetric(self, k, n_ratings, seed,
                                                     alpha):
        """The posterior precision ``L L^T`` is symmetric positive-definite.

        ``conditional_distribution`` returns the Cholesky factor; the
        reconstructed precision must be exactly the prior-plus-Gram matrix,
        symmetric, and with strictly positive eigenvalues — for any rating
        configuration, including items with zero ratings.
        """
        rng = np.random.default_rng(seed)
        neighbours = rng.normal(size=(n_ratings, k))
        ratings = rng.normal(size=n_ratings)
        prior = GaussianPrior(mean=rng.normal(size=k),
                              precision=np.eye(k) * rng.uniform(0.5, 3.0))
        _, chol = conditional_distribution(neighbours, ratings, prior, alpha)
        precision = chol @ chol.T
        expected = prior.precision + alpha * (neighbours.T @ neighbours)
        np.testing.assert_allclose(precision, expected, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(precision, precision.T, atol=1e-10)
        assert (np.linalg.eigvalsh(precision) > 0).all()

    @COMMON_SETTINGS
    @given(st.integers(1, 6), st.integers(0, 20), st.integers(0, 2**31 - 1),
           st.floats(0.1, 10.0))
    def test_rank_one_chain_equals_one_shot_gram(self, k, n_ratings, seed,
                                                 alpha):
        """A chain of rank-one updates factorises the same Gram matrix.

        Starting from ``chol(Lambda)`` and applying one update per rating
        row ``sqrt(alpha) * v_j`` must land on the Cholesky factor of
        ``Lambda + alpha * V^T V`` — the rank-one kernel's whole premise.
        """
        rng = np.random.default_rng(seed)
        neighbours = rng.normal(size=(n_ratings, k))
        prior_precision = np.eye(k) * rng.uniform(0.5, 3.0)
        chol = np.linalg.cholesky(prior_precision)
        for row in neighbours:
            chol = cholesky_rank_one_update(chol, np.sqrt(alpha) * row)
        one_shot = np.linalg.cholesky(
            prior_precision + alpha * (neighbours.T @ neighbours))
        np.testing.assert_allclose(chol, one_shot, rtol=1e-6, atol=1e-8)

    @COMMON_SETTINGS
    @given(st.integers(1, 6), st.integers(2, 12), st.integers(0, 2**31 - 1))
    def test_batched_engine_matches_reference_engine(self, k, n_items, seed):
        """Randomised engine parity: stacked kernels == per-item loop."""
        from repro.sparse.csr import CompressedAxis

        rng = np.random.default_rng(seed)
        degrees = rng.integers(0, 8, size=n_items)
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        n_source = 10
        axis = CompressedAxis(
            indptr=indptr,
            indices=rng.integers(0, n_source, size=int(indptr[-1])).astype(np.int64),
            values=rng.normal(size=int(indptr[-1])))
        source = rng.normal(size=(n_source, k))
        prior = GaussianPrior.standard(k)
        noise = rng.standard_normal((n_items, k))
        reference = np.zeros((n_items, k))
        batched = np.zeros((n_items, k))
        ReferenceUpdateEngine().update_items(reference, source, axis, prior,
                                             2.0, noise)
        BatchedUpdateEngine().update_items(batched, source, axis, prior,
                                           2.0, noise)
        np.testing.assert_allclose(batched, reference, rtol=1e-7, atol=1e-9)

    @COMMON_SETTINGS
    @given(st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_wishart_samples_positive_definite(self, dim, seed):
        sample = sample_wishart(np.eye(dim), dim + 2.0, rng=seed)
        eigenvalues = np.linalg.eigvalsh(sample)
        assert (eigenvalues > -1e-10).all()
        np.testing.assert_allclose(sample, sample.T, atol=1e-10)

    @COMMON_SETTINGS
    @given(st.integers(1, 4), st.integers(1, 60), st.integers(0, 2**31 - 1))
    def test_normal_wishart_posterior_well_formed(self, k, n, seed):
        factors = np.random.default_rng(seed).normal(size=(n, k))
        posterior = normal_wishart_posterior(factors, NormalWishartPrior.uninformative(k))
        assert posterior.beta0 > 0
        assert posterior.nu0 >= k
        eigenvalues = np.linalg.eigvalsh(posterior.W0)
        assert (eigenvalues > 0).all()


# ---------------------------------------------------------------------------
# schedulers and buffers
# ---------------------------------------------------------------------------

class TestSchedulingProperties:
    @COMMON_SETTINGS
    @given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=80),
           st.integers(1, 12))
    def test_work_stealing_respects_makespan_bounds(self, durations, n_cores):
        tasks = [SimTask(i, d) for i, d in enumerate(durations)]
        result = WorkStealingScheduler().schedule(tasks, n_cores)
        total = sum(durations)
        longest = max(durations)
        assert result.makespan >= max(total / n_cores, longest) - 1e-9
        # Greedy scheduling 2x bound plus simulated overheads.
        assert result.makespan <= total / n_cores + longest + result.overhead + 1e-9

    @COMMON_SETTINGS
    @given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=80),
           st.integers(1, 12))
    def test_static_scheduler_conserves_work(self, durations, n_cores):
        tasks = [SimTask(i, d) for i, d in enumerate(durations)]
        result = StaticScheduler().schedule(tasks, n_cores)
        assert result.core_busy.sum() == pytest.approx(sum(durations))

    @COMMON_SETTINGS
    @given(st.lists(st.integers(0, 4), max_size=50))
    def test_send_buffer_never_loses_items(self, destinations):
        messages = send_schedule(np.arange(len(destinations)), destinations)
        sent = sorted(item for _, ids in messages for item in ids.tolist())
        assert sent == list(range(len(destinations)))
        assert [dest for dest, _ in messages] == sorted(set(destinations))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), sparse_triplets(), st.integers(1, 5))
    def test_send_schedule_matches_per_item_buffers(self, data, triplets,
                                                    n_ranks):
        """Over random partitions and plans, the precomputed schedule is
        exactly what per-destination buffers fed one item at a time post
        at the end of the phase, destinations ascending."""
        n_rows, n_cols, rows, cols, values = triplets
        ratings = RatingMatrix.from_coo(CooMatrix.from_arrays(
            n_rows, n_cols, np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(values)))
        owners = st.integers(0, n_ranks - 1)
        partition = Partition(
            n_ranks=n_ranks,
            user_owner=np.array(data.draw(st.lists(
                owners, min_size=n_rows, max_size=n_rows)), dtype=np.int64),
            movie_owner=np.array(data.draw(st.lists(
                owners, min_size=n_cols, max_size=n_cols)), dtype=np.int64))
        plan = build_comm_plan(ratings, partition)
        for phase in ("movies", "users"):
            edges = plan.edges(phase)
            for rank in range(n_ranks):
                mine = edges.owner == rank
                messages = send_schedule(edges.item[mine], edges.dest[mine])
                owned = (partition.movies_of(rank) if phase == "movies"
                         else partition.users_of(rank))
                assert [(dest, ids.tolist()) for dest, ids in messages] \
                    == per_item_buffers(
                        owned.tolist(),
                        lambda item: edges.dest[edges.item == item].tolist())


def per_item_buffers(owned, destinations_of):
    """The per-item send-buffer loop the schedule replaced: append every
    (item, destination) pair, then post each buffer, destinations
    ascending."""
    buffers = {}
    for item in owned:
        for dest in destinations_of(item):
            buffers.setdefault(dest, []).append(item)
    return sorted(buffers.items())
