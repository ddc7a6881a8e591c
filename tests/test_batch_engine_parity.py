"""Parity harness: the batched engine must match the per-item reference.

Every test feeds both engines identical inputs and identical pre-drawn
noise and requires factor-for-factor agreement to floating-point
tolerance.  This is the contract that lets later scaling PRs refactor the
hot path fearlessly: as long as this file passes, an execution-strategy
change has not changed the sampled chain.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import batch_engine
from repro.core.batch_engine import (
    BatchedUpdateEngine,
    ReferenceUpdateEngine,
    available_engines,
    make_update_engine,
)
from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig, GaussianPrior
from repro.core.shared_engine import SharedMemoryUpdateEngine, WorkerPoolError
from repro.core.updates import (
    HybridUpdatePolicy,
    UpdateMethod,
    conditional_distribution,
)
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.utils.thread_backend import ThreadPoolBackend
from repro.sparse.buckets import (
    build_bucket_plan,
    cached_bucket_plan,
    fuse_bucket_plan,
)
from repro.sparse.csr import CompressedAxis, RatingMatrix
from repro.utils.validation import ValidationError

#: Engine-vs-engine tolerance.  The two paths share per-item arithmetic up
#: to the solver used (``cho_solve`` vs the augmented factor's last row and
#: an elementwise back-substitution), so they agree far tighter than this
#: in practice; the bound leaves room for other BLAS builds.
TOL = dict(rtol=1e-7, atol=1e-9)


def _random_axis(rng, n_items, n_source, degrees) -> CompressedAxis:
    """A compressed axis with the requested per-item degrees."""
    degrees = np.asarray(degrees, dtype=np.int64)
    assert degrees.shape[0] == n_items
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    nnz = int(indptr[-1])
    return CompressedAxis(
        indptr=indptr,
        indices=rng.integers(0, n_source, size=nnz).astype(np.int64),
        values=rng.normal(size=nnz),
    )


def _phase_inputs(axis, n_source, k, seed):
    """``(source, prior, noise)`` for one phase over ``axis``."""
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n_source, k))
    prior = GaussianPrior(mean=rng.normal(size=k),
                          precision=np.eye(k) * rng.uniform(0.5, 3.0))
    noise = rng.standard_normal((axis.n, k))
    return source, prior, noise


def _run_both(axis, n_source, k, policy=None, items=None, seed=0):
    """Run one phase through both engines on identical inputs."""
    source, prior, noise = _phase_inputs(axis, n_source, k, seed)
    outputs = []
    for engine_cls in (ReferenceUpdateEngine, BatchedUpdateEngine):
        engine = engine_cls(policy=policy)
        target = np.zeros((axis.n, k))
        engine.update_items(target, source, axis, prior, 2.0, noise,
                            items=items)
        outputs.append(target)
    return outputs


class TestPhaseParity:
    """Engine-level parity on one phase over crafted sparsity patterns."""

    @pytest.mark.parametrize("k", [1, 8, 32])
    @pytest.mark.parametrize("method", [None, UpdateMethod.RANK_ONE,
                                        UpdateMethod.SERIAL_CHOLESKY,
                                        UpdateMethod.PARALLEL_CHOLESKY])
    def test_mixed_degrees_all_methods(self, k, method, forcing):
        """Heterogeneous degrees spanning all three policy regimes, or
        every degree from 1 in the one regime ``method``."""
        rng = np.random.default_rng(7)
        # Tiny thresholds so every regime is exercised cheaply.
        if method is None:
            policy = HybridUpdatePolicy(parallel_threshold=12,
                                        rank_one_threshold=4, block_grain=5)
        else:
            policy = forcing(method, grain=5, ceiling=25)
        degrees = rng.integers(0, 25, size=30)
        axis = _random_axis(rng, 30, 40, degrees)
        reference, batched = _run_both(axis, 40, k, policy=policy, seed=k)
        np.testing.assert_allclose(batched, reference, **TOL)

    @pytest.mark.parametrize("k", [1, 8, 32])
    def test_degenerate_shapes(self, k):
        """Items with zero ratings and single-rating items."""
        rng = np.random.default_rng(3)
        degrees = np.array([0, 1, 0, 1, 1, 0, 2, 0])
        axis = _random_axis(rng, 8, 10, degrees)
        reference, batched = _run_both(axis, 10, k, seed=k + 100)
        np.testing.assert_allclose(batched, reference, **TOL)
        # Zero-degree items draw from the bare prior — still finite rows.
        assert np.isfinite(batched).all()

    def test_all_items_zero_degree(self):
        """An entirely empty axis (no ratings at all)."""
        rng = np.random.default_rng(5)
        axis = _random_axis(rng, 6, 4, np.zeros(6, dtype=np.int64))
        reference, batched = _run_both(axis, 4, 8)
        np.testing.assert_allclose(batched, reference, **TOL)

    def test_subset_items_match_full_plan_rows(self, monkeypatch):
        """Every block layout produces the same rows as the full plan:
        a rank subset, 3-item blocks, thread-mapped blocks and the
        shared-memory workers' own blocks."""
        rng = np.random.default_rng(11)
        degrees = rng.integers(0, 15, size=24)
        # Item 0 is a one-item bucket of the rank-one regime (K = 8: below
        # degree 6), in the full plan and in the subset alike.
        degrees[degrees == 3] = 4
        degrees[0] = 3
        axis = _random_axis(rng, 24, 30, degrees)
        subset = np.array([0, 1, 4, 5, 9, 17, 23])
        k = 8
        assert HybridUpdatePolicy().choose(3, k) is UpdateMethod.RANK_ONE

        full_ref, full_bat = _run_both(axis, 30, k, seed=42)
        sub_ref, sub_bat = _run_both(axis, 30, k, items=subset, seed=42)
        np.testing.assert_allclose(sub_bat[subset], sub_ref[subset], **TOL)
        # Subset rows are bitwise identical to the full-plan rows: stacked
        # LAPACK applies one routine per slice and the back-substitution
        # is elementwise, so an item's sample cannot depend on which other
        # items share its bucket or block.
        np.testing.assert_array_equal(sub_bat[subset], full_bat[subset])
        # Non-subset rows were never touched.
        untouched = np.setdiff1d(np.arange(24), subset)
        assert (sub_bat[untouched] == 0).all()

        source, prior, noise = _phase_inputs(axis, 30, k, seed=42)

        def run(engine, parallel_map=None):
            target = np.zeros((axis.n, k))
            engine.update_items(target, source, axis, prior, 2.0, noise,
                                parallel_map=parallel_map)
            return target

        with make_update_engine("shared", n_workers=2) as shared:
            np.testing.assert_array_equal(run(shared), full_bat)
        # Three Gram items per block, pieces of rank-one buckets alike.
        monkeypatch.setattr(batch_engine, "BLOCK_BYTES", 3 * 8 * k * k)
        buckets = BatchedUpdateEngine()._plan_for(axis, None).buckets
        assert len(batch_engine._pack_blocks(
            buckets, [8 * k * k] * len(buckets))) == 8
        np.testing.assert_array_equal(run(BatchedUpdateEngine()), full_bat)
        threads = ThreadPoolBackend(n_threads=3, chunk_size=1)
        np.testing.assert_array_equal(
            run(BatchedUpdateEngine(), threads.map_items), full_bat)

    def test_noise_rows_consumed_by_global_item_id(self):
        """Item ``i`` consumes ``noise[i]`` regardless of bucket order."""
        rng = np.random.default_rng(2)
        degrees = np.array([3, 1, 3, 1])  # buckets: {1,3} items interleaved
        axis = _random_axis(rng, 4, 6, degrees)
        source = rng.normal(size=(6, 5))
        prior = GaussianPrior.standard(5)
        noise = rng.standard_normal((4, 5))
        engine = BatchedUpdateEngine()
        base = np.zeros((4, 5))
        engine.update_items(base, source, axis, prior, 2.0, noise)
        # Perturbing one item's noise row changes only that item's sample.
        noise2 = noise.copy()
        noise2[2] += 1.0
        perturbed = np.zeros((4, 5))
        BatchedUpdateEngine().update_items(perturbed, source, axis, prior,
                                           2.0, noise2)
        assert not np.allclose(perturbed[2], base[2])
        np.testing.assert_array_equal(perturbed[[0, 1, 3]], base[[0, 1, 3]])


class TestKernelNumerics:
    """The batched kernel against the target distribution itself.

    Parity with the reference engine shows the engines agree; these tests
    check what the batched kernel draws, and that reduced precision cannot
    break its factorisation.
    """

    #: Item replicas per degree and noise matrices drawn: 1000 x 8 = 8000
    #: draws per degree.  Whitened draws ``L^T (x - mean)`` must be
    #: N(0, I): their mean within 4/sqrt(n) = 0.045 of 0 and their
    #: covariance within 5 sqrt(2/n) = 0.079 of I (>= 4 standard errors).
    N_REPLICAS, N_DRAWS = 1000, 8

    def test_sample_moments_match_conditional(self):
        """Degrees 0, 1, d < K, d > K and the parallel-Cholesky regime."""
        k, n_source, alpha = 4, 20, 2.0
        degrees = [0, 1, 3, 7, 16]
        policy = HybridUpdatePolicy(parallel_threshold=12,
                                    rank_one_threshold=2, block_grain=5)
        assert policy.choose(16) is UpdateMethod.PARALLEL_CHOLESKY
        rng = np.random.default_rng(2024)
        source = rng.normal(size=(n_source, k))
        spread = rng.normal(size=(k, k))
        prior = GaussianPrior(mean=rng.normal(size=k),
                              precision=spread @ spread.T / k + np.eye(k))
        templates = [(rng.integers(0, n_source, size=d), rng.normal(size=d))
                     for d in degrees]
        # Every degree's template is replicated N_REPLICAS times, so each
        # noise matrix yields N_REPLICAS independent draws per template.
        n = self.N_REPLICAS
        axis = CompressedAxis(
            indptr=np.concatenate(
                [[0], np.cumsum(np.repeat(degrees, n))]).astype(np.int64),
            indices=np.concatenate([np.tile(idx, n) for idx, _ in templates]),
            values=np.concatenate([np.tile(val, n) for _, val in templates]))
        engine = BatchedUpdateEngine(policy=policy)
        draws = []
        for _ in range(self.N_DRAWS):
            target = np.zeros((axis.n, k))
            engine.update_items(target, source, axis, prior, alpha,
                                rng.standard_normal((axis.n, k)))
            draws.append(target.reshape(len(degrees), n, k))
        draws = np.concatenate(draws, axis=1)

        n_draws = n * self.N_DRAWS
        for (idx, values), samples in zip(templates, draws):
            mean, chol = conditional_distribution(source[idx], values,
                                                  prior, alpha)
            white = (samples - mean) @ chol
            np.testing.assert_array_less(np.abs(white.mean(axis=0)),
                                         4.0 / np.sqrt(n_draws))
            np.testing.assert_array_less(
                np.abs(np.cov(white, rowvar=False) - np.eye(k)),
                5.0 * np.sqrt(2.0 / n_draws))

    #: Degree 0, the rank-one regime (below 4), the Gram path and the
    #: blocked parallel path (12 and up); degrees 5 and 13 are one-item
    #: buckets.
    AFFINE_DEGREES = [0, 1, 1, 2, 3, 3, 5, 7, 7, 11, 13, 20, 20]
    AFFINE_POLICY = HybridUpdatePolicy(parallel_threshold=12,
                                       rank_one_threshold=4, block_grain=5)

    @pytest.mark.parametrize("engine", ["reference", "batched", "shared",
                                        "rank_subset"])
    def test_draw_is_mean_plus_covariance_square_root(self, engine):
        """Exact, not Monte Carlo: every regime of every engine draws
        ``u(z) = u(0) + J z`` with ``u(0)`` the conditional mean
        ``P^-1 (Lambda mu + alpha X^T r)`` and ``J J^T = P^-1``, where
        ``P = Lambda + alpha X^T X``.  Any square root of the conditional
        covariance passes; a wrong mean or a wrong root fails."""
        k, n_source, alpha, rel = 4, 25, 2.0, 1e-10
        degrees = self.AFFINE_DEGREES
        assert {self.AFFINE_POLICY.choose(d) for d in degrees} \
            == set(UpdateMethod)
        rng = np.random.default_rng(99)
        axis = _random_axis(rng, len(degrees), n_source, degrees)
        source = rng.normal(size=(n_source, k))
        spread = rng.normal(size=(k, k))
        prior = GaussianPrior(mean=rng.normal(size=k),
                              precision=spread @ spread.T / k + np.eye(k))
        items = np.array([0, 2, 4, 6, 9, 10, 12]) \
            if engine == "rank_subset" else np.arange(axis.n)
        noise = rng.standard_normal((axis.n, k))
        with make_update_engine(
                "batched" if engine == "rank_subset" else engine,
                policy=self.AFFINE_POLICY,
                **({"n_workers": 2} if engine == "shared" else {})) as run:

            def draw(z):
                target = np.zeros((axis.n, k))
                run.update_items(target, source, axis, prior, alpha,
                                 np.broadcast_to(z, (axis.n, k)).copy(),
                                 items=None if engine != "rank_subset"
                                 else items)
                return target[items]

            at_zero = draw(np.zeros(k))
            # jacobian[i] is item i's J: column j is u(e_j) - u(0).
            jacobian = np.stack([draw(unit) - at_zero
                                 for unit in np.eye(k)], axis=2)
            at_noise = draw(noise)

        def relative(actual, expected):
            return np.abs(actual - expected).max() / np.abs(expected).max()

        for row, item in enumerate(items):
            idx, values = axis.slice(int(item))
            mean, chol = conditional_distribution(source[idx], values, prior,
                                                  alpha)
            covariance = np.linalg.inv(chol @ chol.T)
            assert relative(at_zero[row], mean) < rel
            assert relative(jacobian[row] @ jacobian[row].T,
                            covariance) < rel
            # Affine in z: the noise enters linearly, whatever the root.
            assert relative(at_noise[row], at_zero[row]
                            + jacobian[row] @ noise[item]) < rel


class TestSamplerParity:
    """Full-sweep parity through the sequential sampler."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_low_rank_dataset(SyntheticConfig(
            n_users=50, n_movies=35, rank=3, density=0.3, noise_std=0.25,
            test_fraction=0.2, seed=77))

    @pytest.mark.parametrize("k", [1, 8, 32])
    def test_sweep_parity(self, data, k):
        """Two sweeps, same seed: identical factors to float tolerance."""
        config = BPMFConfig(num_latent=k, burn_in=1, n_samples=1, alpha=4.0)
        ref = GibbsSampler(config, SamplerOptions(engine="reference")).run(
            data.split.train, data.split, seed=5)
        bat = GibbsSampler(config, SamplerOptions(engine="batched")).run(
            data.split.train, data.split, seed=5)
        np.testing.assert_allclose(bat.state.user_factors,
                                   ref.state.user_factors, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(bat.state.movie_factors,
                                   ref.state.movie_factors, rtol=1e-6, atol=1e-8)
        assert bat.final_rmse == pytest.approx(ref.final_rmse, rel=1e-6)

    @pytest.mark.parametrize("method", list(UpdateMethod))
    def test_sweep_parity_forced_methods(self, data, method, forcing):
        config = BPMFConfig(num_latent=8, burn_in=0, n_samples=1, alpha=4.0)
        ref = GibbsSampler(config, SamplerOptions(
            engine="reference", policy=forcing(method))).run(
            data.split.train, data.split, seed=1)
        bat = GibbsSampler(config, SamplerOptions(
            engine="batched", policy=forcing(method))).run(
            data.split.train, data.split, seed=1)
        np.testing.assert_allclose(bat.state.user_factors,
                                   ref.state.user_factors, rtol=1e-6, atol=1e-8)

    def test_rows_with_no_ratings_in_matrix(self):
        """A rating matrix containing empty users and single-rating movies."""
        matrix = RatingMatrix.from_arrays(
            5, 4,
            np.array([0, 0, 2, 2, 4]), np.array([0, 1, 1, 2, 3]),
            np.array([4.0, 3.0, 2.0, 5.0, 1.0]))
        assert (matrix.user_degrees() == 0).any()
        assert (matrix.movie_degrees() == 1).any()
        config = BPMFConfig(num_latent=4, burn_in=0, n_samples=1, alpha=2.0)
        ref = GibbsSampler(config, SamplerOptions(engine="reference")).run(
            matrix, seed=0)
        bat = GibbsSampler(config, SamplerOptions(engine="batched")).run(
            matrix, seed=0)
        np.testing.assert_allclose(bat.state.user_factors,
                                   ref.state.user_factors, rtol=1e-6, atol=1e-8)
        assert np.isfinite(bat.state.user_factors).all()


class TestEngineSelection:
    def test_available_engines(self):
        assert set(available_engines()) == {"reference", "batched", "shared"}

    def test_default_engine_is_batched(self):
        assert SamplerOptions().engine == "batched"
        assert isinstance(GibbsSampler().engine, BatchedUpdateEngine)

    def test_unknown_engine_rejected_with_engine_list(self):
        with pytest.raises(ValidationError) as excinfo:
            make_update_engine("vectorised-harder")
        message = str(excinfo.value)
        for name in available_engines():
            assert name in message
        with pytest.raises(ValidationError):
            GibbsSampler(options=SamplerOptions(engine="nope"))

    def test_n_workers_rejected_for_in_process_engines(self):
        with pytest.raises(ValidationError):
            make_update_engine("batched", n_workers=2)
        with pytest.raises(ValidationError):
            make_update_engine("reference", n_workers=2)

    def test_bucket_plan_cached_per_axis_and_subset(self):
        rng = np.random.default_rng(0)
        axis = _random_axis(rng, 10, 12, rng.integers(0, 5, size=10))
        engine = BatchedUpdateEngine()
        plan_a = engine._plan_for(axis, None)
        plan_b = engine._plan_for(axis, None)
        assert plan_a is plan_b
        subset = np.array([1, 2, 3])
        plan_c = engine._plan_for(axis, subset)
        assert plan_c is not plan_a
        assert plan_c is engine._plan_for(axis, subset.copy())

    def test_bucket_plan_shared_across_engines_and_sweeps(self):
        """The plan cache is per axis identity, not per engine instance."""
        rng = np.random.default_rng(8)
        axis = _random_axis(rng, 12, 9, rng.integers(0, 6, size=12))
        plan_direct = cached_bucket_plan(axis)
        engine_a, engine_b = BatchedUpdateEngine(), BatchedUpdateEngine()
        assert engine_a._plan_for(axis, None) is plan_direct
        assert engine_b._plan_for(axis, None) is plan_direct
        # Repeated sweeps of one engine keep hitting the same object.
        assert engine_a._plan_for(axis, None) is plan_direct

    def test_bucket_plan_cache_invalidated_on_axis_change(self):
        """A new axis object — even with identical content — replans."""
        rng = np.random.default_rng(21)
        degrees = rng.integers(0, 5, size=10)

        def make_axis(seed):
            return _random_axis(np.random.default_rng(seed), 10, 12, degrees)

        axis = make_axis(3)
        plan_old = cached_bucket_plan(axis)
        del axis
        gc.collect()  # the dead axis's entries go before the next lookup
        fresh = make_axis(3)
        plan_new = cached_bucket_plan(fresh)
        assert plan_new is not plan_old

    def test_a_collected_axis_frees_its_plans(self):
        """The plans live on their axis: once it is collected, nothing
        keeps them, so a recycled ``id()`` cannot reach them either."""
        rng = np.random.default_rng(17)
        axis = _random_axis(rng, 10, 12, rng.integers(0, 5, size=10))
        plans = [weakref.ref(cached_bucket_plan(axis)),
                 weakref.ref(cached_bucket_plan(axis, np.array([1, 2])))]
        assert all(plan() is not None for plan in plans)
        del axis
        gc.collect()
        assert [plan() for plan in plans] == [None, None]

    def test_plan_cache_stress_under_thread_switches(self, monkeypatch):
        """Four threads plan shared axes with a tiny switch interval: every
        thread gets the one plan object of each key, and no error is
        raised where nobody could catch it."""
        errors = []
        monkeypatch.setattr(sys, "unraisablehook", errors.append)
        rng = np.random.default_rng(5)
        axes = [_random_axis(rng, 8, 6, rng.integers(0, 4, size=8))
                for _ in range(30)]
        subset = np.array([0, 3])
        seen = [[] for _ in range(4)]

        def churn(out):
            for axis in axes:
                out.append((cached_bucket_plan(axis),
                            cached_bucket_plan(axis, subset)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(out,))
                       for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for out in seen[1:]:
            assert all(mine[0] is first[0] and mine[1] is first[1]
                       for mine, first in zip(out, seen[0]))


class TestSuperBuckets:
    """Degree-padded fusion must repartition the plan without changing it."""

    def _plan(self, seed=5, n_items=40, n_source=30, high=20):
        rng = np.random.default_rng(seed)
        axis = _random_axis(rng, n_items, n_source,
                            rng.integers(0, high, size=n_items))
        return build_bucket_plan(axis)

    def test_fusion_covers_every_item_exactly_once(self):
        plan = self._plan()
        fused = fuse_bucket_plan(plan, num_latent=8)
        covered = np.concatenate([sb.items for sb in fused.super_buckets])
        original = np.concatenate([b.items for b in plan.buckets])
        assert sorted(covered.tolist()) == sorted(original.tolist())
        assert fused.n_planned_items == plan.n_planned_items

    def test_member_slices_reproduce_exact_degree_blocks(self):
        """Slicing a member back out yields the unpadded bucket arrays."""
        plan = self._plan(seed=9)
        fused = fuse_bucket_plan(plan, num_latent=8)
        by_degree = {}
        for super_bucket in fused.super_buckets:
            for member in super_bucket.members:
                rows = slice(member.row_offset,
                             member.row_offset + member.n_items)
                by_degree.setdefault(member.degree, []).append((
                    super_bucket.items[rows],
                    super_bucket.neighbours[rows, :member.degree],
                    super_bucket.values[rows, :member.degree],
                ))
                # Padding beyond the member degree is exactly zero.
                assert (super_bucket.neighbours[rows, member.degree:] == 0).all()
                assert (super_bucket.values[rows, member.degree:] == 0.0).all()
        for bucket in plan.buckets:
            pieces = by_degree[bucket.degree]
            items = np.concatenate([p[0] for p in pieces])
            neighbours = np.concatenate([p[1] for p in pieces])
            values = np.concatenate([p[2] for p in pieces])
            order = np.argsort(items)
            np.testing.assert_array_equal(items[order], bucket.items)
            np.testing.assert_array_equal(neighbours[order], bucket.neighbours)
            np.testing.assert_array_equal(values[order], bucket.values)

    def test_large_bucket_split_into_chunks(self):
        """One dominant degree cannot serialise a phase on one worker."""
        rng = np.random.default_rng(2)
        axis = _random_axis(rng, 64, 50, np.full(64, 7))  # one huge bucket
        plan = build_bucket_plan(axis)
        assert plan.n_buckets == 1
        fused = fuse_bucket_plan(plan, num_latent=8, n_tasks_hint=8)
        assert fused.n_super_buckets > 1
        assert fused.n_planned_items == 64

    def test_padding_waste_is_bounded(self):
        plan = self._plan(seed=13, n_items=60, high=30)
        fused = fuse_bucket_plan(plan, num_latent=8, max_pad_ratio=0.25)
        for super_bucket in fused.super_buckets:
            padded = super_bucket.n_items * super_bucket.pad_degree
            real = sum(member.n_items * member.degree
                       for member in super_bucket.members)
            if padded:
                assert (padded - real) / padded <= 0.25 + 1e-9

    def test_worker_assignment_deterministic_and_complete(self):
        plan = self._plan(seed=4)
        fused = fuse_bucket_plan(plan, num_latent=8)
        assignment = fused.assign_workers(3)
        again = fused.assign_workers(3)
        assert assignment == again
        flat = sorted(i for worker in assignment for i in worker)
        assert flat == list(range(fused.n_super_buckets))


class TestSharedEngine:
    """The process backend must be bit-identical to the batched engine."""

    def _inputs(self, seed=7, n_items=50, n_source=35, k=8, high=25):
        rng = np.random.default_rng(seed)
        axis = _random_axis(rng, n_items, n_source,
                            rng.integers(0, high, size=n_items))
        source = rng.normal(size=(n_source, k))
        prior = GaussianPrior(mean=rng.normal(size=k),
                              precision=np.eye(k) * rng.uniform(0.5, 2.0))
        noise = rng.standard_normal((n_items, k))
        return axis, source, prior, noise

    def test_phase_bit_parity_vs_batched(self):
        axis, source, prior, noise = self._inputs()
        batched = np.zeros_like(noise)
        BatchedUpdateEngine().update_items(batched, source, axis, prior,
                                           2.0, noise)
        with make_update_engine("shared", n_workers=2) as engine:
            shared = np.zeros_like(noise)
            engine.update_items(shared, source, axis, prior, 2.0, noise)
            # Pool and plans persist across phases: a second pass reuses
            # both and still matches.
            repeat = np.zeros_like(noise)
            engine.update_items(repeat, source, axis, prior, 2.0, noise)
        np.testing.assert_array_equal(shared, batched)
        np.testing.assert_array_equal(repeat, batched)

    def test_subset_bit_parity(self):
        """Distributed-style subsets match the batched rows bitwise."""
        axis, source, prior, noise = self._inputs(seed=11)
        subset = np.array([0, 3, 8, 21, 40, 49])
        batched = np.zeros_like(noise)
        BatchedUpdateEngine().update_items(batched, source, axis, prior,
                                           2.0, noise)
        with make_update_engine("shared", n_workers=2) as engine:
            shared = np.zeros_like(noise)
            engine.update_items(shared, source, axis, prior, 2.0, noise,
                                items=subset)
        np.testing.assert_array_equal(shared[subset], batched[subset])
        untouched = np.setdiff1d(np.arange(noise.shape[0]), subset)
        assert (shared[untouched] == 0).all()

    def test_full_sweep_chain_bit_parity(self):
        """GibbsSampler(engine="shared") reproduces the batched chain."""
        data = make_low_rank_dataset(SyntheticConfig(
            n_users=40, n_movies=30, rank=3, density=0.3, noise_std=0.25,
            test_fraction=0.2, seed=31))
        config = BPMFConfig(num_latent=8, burn_in=1, n_samples=2, alpha=4.0)
        batched = GibbsSampler(config, SamplerOptions(engine="batched")).run(
            data.split.train, data.split, seed=5)
        shared = GibbsSampler(config, SamplerOptions(
            engine="shared", n_workers=2)).run(
            data.split.train, data.split, seed=5)
        np.testing.assert_array_equal(shared.state.user_factors,
                                      batched.state.user_factors)
        np.testing.assert_array_equal(shared.state.movie_factors,
                                      batched.state.movie_factors)
        assert shared.rmse_per_sample == batched.rmse_per_sample

    def test_worker_error_propagates_and_engine_recovers(self):
        """A worker-side failure raises, tears down, and stays usable."""
        axis, source, prior, noise = self._inputs(seed=23)
        engine = make_update_engine("shared", n_workers=2)
        try:
            good = np.zeros_like(noise)
            engine.update_items(good, source, axis, prior, 2.0, noise)
            segment_names = self._segment_names(engine)
            assert segment_names  # plan + factor blocks exist
            bad_axis = CompressedAxis(
                indptr=np.array([0, 2]),
                indices=np.array([source.shape[0] + 5,
                                  source.shape[0] + 6]),  # out of range
                values=np.array([1.0, 2.0]))
            with pytest.raises(WorkerPoolError):
                engine.update_items(np.zeros((1, noise.shape[1])), source,
                                    bad_axis, prior, 2.0,
                                    noise[:1])
            # The failed phase tore the pool down and unlinked everything.
            self._assert_unlinked(segment_names)
            assert not engine.pool_running
            # ... and the engine rebuilds lazily and still matches.
            again = np.zeros_like(noise)
            engine.update_items(again, source, axis, prior, 2.0, noise)
            np.testing.assert_array_equal(again, good)
        finally:
            engine.close()

    def test_kill_mid_sweep_unlinks_shared_memory(self):
        """SIGKILLing a worker between phases must not leak segments."""
        axis, source, prior, noise = self._inputs(seed=29)
        engine = make_update_engine("shared", n_workers=2)
        try:
            target = np.zeros_like(noise)
            engine.update_items(target, source, axis, prior, 2.0, noise)
            segment_names = self._segment_names(engine)
            victim = engine._workers[0][0]
            victim.kill()
            victim.join(timeout=5.0)
            with pytest.raises(WorkerPoolError):
                engine.update_items(np.zeros_like(noise), source, axis,
                                    prior, 2.0, noise)
            self._assert_unlinked(segment_names)
            assert not engine.pool_running
        finally:
            engine.close()

    def test_recycled_axis_id_cannot_serve_stale_phase_plan(self):
        """The phase-plan cache checks axis identity, not just id().

        Forges the failure a recycled ``id()`` would produce — a cache
        entry whose key matches a *different* axis object — and asserts
        the engine rebuilds instead of sampling from the old dataset's
        shared-memory gathers.
        """
        axis_a, source, prior, noise = self._inputs(seed=41)
        rng = np.random.default_rng(43)
        axis_b = CompressedAxis(indptr=axis_a.indptr.copy(),
                                indices=axis_a.indices.copy(),
                                values=rng.normal(size=axis_a.nnz))
        expected = np.zeros_like(noise)
        BatchedUpdateEngine().update_items(expected, source, axis_b, prior,
                                           2.0, noise)
        with make_update_engine("shared", n_workers=2) as engine:
            engine.update_items(np.zeros_like(noise), source, axis_a, prior,
                                2.0, noise)
            stale_entry = next(iter(engine._phase_plans.values()))
            forged_key = (id(axis_b), None, prior.num_latent)
            engine._phase_plans = {forged_key: stale_entry}
            shared = np.zeros_like(noise)
            engine.update_items(shared, source, axis_b, prior, 2.0, noise)
        np.testing.assert_array_equal(shared, expected)

    def test_close_is_idempotent_and_context_managed(self):
        axis, source, prior, noise = self._inputs(seed=37)
        with make_update_engine("shared", n_workers=2) as engine:
            engine.update_items(np.zeros_like(noise), source, axis, prior,
                                2.0, noise)
            segment_names = self._segment_names(engine)
        self._assert_unlinked(segment_names)
        engine.close()  # second close is a no-op
        assert not engine.pool_running

    @staticmethod
    def _segment_names(engine: SharedMemoryUpdateEngine):
        names = [block.name for block in engine._factor_blocks.values()]
        for _, plan in engine._phase_plans.values():
            names.extend(block.name for block in plan.blocks)
        return names

    @staticmethod
    def _assert_unlinked(segment_names):
        from multiprocessing import shared_memory
        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestBucketPlan:
    def test_plan_partitions_items_exactly(self):
        rng = np.random.default_rng(9)
        degrees = rng.integers(0, 6, size=20)
        axis = _random_axis(rng, 20, 15, degrees)
        plan = build_bucket_plan(axis)
        covered = np.concatenate([b.items for b in plan.buckets])
        assert sorted(covered.tolist()) == list(range(20))
        for bucket in plan.buckets:
            assert bucket.neighbours.shape == (bucket.n_items, bucket.degree)
            assert bucket.values.shape == (bucket.n_items, bucket.degree)
            np.testing.assert_array_equal(
                np.diff(axis.indptr)[bucket.items], bucket.degree)

    def test_plan_gathers_match_slices(self):
        rng = np.random.default_rng(13)
        axis = _random_axis(rng, 12, 9, rng.integers(0, 7, size=12))
        plan = build_bucket_plan(axis)
        for bucket in plan.buckets:
            for row, item in enumerate(bucket.items):
                idx, values = axis.slice(int(item))
                np.testing.assert_array_equal(bucket.neighbours[row], idx)
                np.testing.assert_array_equal(bucket.values[row], values)

    def test_plan_rejects_bad_subsets(self):
        rng = np.random.default_rng(1)
        axis = _random_axis(rng, 5, 5, rng.integers(0, 3, size=5))
        with pytest.raises(ValidationError):
            build_bucket_plan(axis, np.array([0, 0]))
        with pytest.raises(ValidationError):
            build_bucket_plan(axis, np.array([7]))
        with pytest.raises(ValidationError):
            build_bucket_plan(axis, np.array([[0, 1]]))
