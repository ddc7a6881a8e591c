"""Unit tests for the three item-update kernels and the hybrid policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.priors import GaussianPrior
from repro.core.updates import (
    HybridUpdatePolicy,
    UpdateMethod,
    cholesky_rank_one_update,
    conditional_distribution,
    sample_item,
    sample_item_parallel_cholesky,
    sample_item_rank_one,
    sample_item_serial_cholesky,
)
from repro.utils.validation import ValidationError


@pytest.fixture
def item_problem(rng):
    """One synthetic item update problem: 20 neighbours, K=5."""
    k = 5
    neighbours = rng.normal(size=(20, k))
    ratings = rng.normal(size=20)
    prior = GaussianPrior(mean=rng.normal(size=k), precision=np.eye(k) * 1.5)
    return neighbours, ratings, prior


class TestCholeskyRankOneUpdate:
    def test_matches_direct_factorisation(self, rng):
        a = rng.normal(size=(4, 4))
        spd = a @ a.T + 4 * np.eye(4)
        vector = rng.normal(size=4)
        updated = cholesky_rank_one_update(np.linalg.cholesky(spd), vector)
        expected = np.linalg.cholesky(spd + np.outer(vector, vector))
        np.testing.assert_allclose(updated, expected, atol=1e-10)

    def test_repeated_updates(self, rng):
        spd = np.eye(3)
        chol = np.linalg.cholesky(spd)
        vectors = rng.normal(size=(6, 3))
        for vector in vectors:
            chol = cholesky_rank_one_update(chol, vector)
            spd = spd + np.outer(vector, vector)
        np.testing.assert_allclose(chol, np.linalg.cholesky(spd), atol=1e-9)

    def test_inputs_not_mutated(self, rng):
        chol = np.linalg.cholesky(np.eye(3) * 2)
        vector = rng.normal(size=3)
        chol_copy, vector_copy = chol.copy(), vector.copy()
        cholesky_rank_one_update(chol, vector)
        np.testing.assert_array_equal(chol, chol_copy)
        np.testing.assert_array_equal(vector, vector_copy)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            cholesky_rank_one_update(np.eye(3), np.ones(4))


class TestConditionalDistribution:
    def test_closed_form_small_case(self):
        """Check against a hand-computed 1-D case."""
        prior = GaussianPrior(mean=np.array([0.0]), precision=np.array([[2.0]]))
        neighbours = np.array([[1.0], [2.0]])
        ratings = np.array([3.0, 2.0])
        alpha = 1.0
        mean, chol = conditional_distribution(neighbours, ratings, prior, alpha)
        # precision = 2 + 1*(1+4) = 7 ; rhs = 0 + (3 + 4) = 7 ; mean = 1
        assert mean[0] == pytest.approx(1.0)
        assert chol[0, 0] == pytest.approx(np.sqrt(7.0))

    def test_no_neighbours_returns_prior(self):
        prior = GaussianPrior(mean=np.array([1.0, -1.0]),
                              precision=np.diag([2.0, 4.0]))
        mean, chol = conditional_distribution(np.empty((0, 2)), np.empty(0),
                                              prior, alpha=2.0)
        np.testing.assert_allclose(mean, prior.mean)
        np.testing.assert_allclose(chol @ chol.T, prior.precision)

    def test_more_data_tightens_posterior(self, rng):
        prior = GaussianPrior.standard(3)
        few = rng.normal(size=(2, 3))
        many = rng.normal(size=(200, 3))
        _, chol_few = conditional_distribution(few, rng.normal(size=2), prior, 2.0)
        _, chol_many = conditional_distribution(many, rng.normal(size=200), prior, 2.0)
        assert np.trace(chol_many @ chol_many.T) > np.trace(chol_few @ chol_few.T)

    def test_input_validation(self, rng):
        prior = GaussianPrior.standard(2)
        with pytest.raises(ValidationError):
            conditional_distribution(rng.normal(size=(3, 2)), rng.normal(size=2),
                                     prior, 2.0)
        with pytest.raises(ValidationError):
            conditional_distribution(rng.normal(size=(3, 2)), rng.normal(size=3),
                                     prior, alpha=-1.0)
        with pytest.raises(ValidationError):
            conditional_distribution(rng.normal(size=6), rng.normal(size=6),
                                     prior, 2.0)


class TestKernelEquivalence:
    """All three kernels must sample from the same distribution."""

    def test_identical_given_same_noise(self, item_problem, affine_map):
        """The Cholesky kernels share one square root, so one noise row
        gives one sample.  The rank-one kernel takes another root of the
        same conditional: the same mean and the same covariance."""
        neighbours, ratings, prior = item_problem
        noise = np.random.default_rng(7).standard_normal(prior.num_latent)
        serial = sample_item_serial_cholesky(neighbours, ratings, prior, 2.0,
                                             noise=noise)
        parallel = sample_item_parallel_cholesky(neighbours, ratings, prior, 2.0,
                                                 noise=noise, n_blocks=4)
        np.testing.assert_allclose(parallel, serial, atol=1e-8)
        mean, root = affine_map(sample_item_serial_cholesky, neighbours,
                                ratings, prior, 2.0)
        rank_one_mean, rank_one_root = affine_map(sample_item_rank_one,
                                                  neighbours, ratings, prior,
                                                  2.0)
        np.testing.assert_allclose(rank_one_mean, mean, atol=1e-8)
        np.testing.assert_allclose(rank_one_root @ rank_one_root.T,
                                   root @ root.T, atol=1e-8)

    def test_parallel_block_count_does_not_change_result(self, item_problem):
        neighbours, ratings, prior = item_problem
        noise = np.zeros(prior.num_latent)
        results = [sample_item_parallel_cholesky(neighbours, ratings, prior, 2.0,
                                                 noise=noise, n_blocks=blocks)
                   for blocks in (1, 2, 3, 8, 50)]
        for result in results[1:]:
            np.testing.assert_allclose(result, results[0], atol=1e-9)

    def test_zero_noise_returns_conditional_mean(self, item_problem):
        neighbours, ratings, prior = item_problem
        mean, _ = conditional_distribution(neighbours, ratings, prior, 2.0)
        sampled = sample_item_serial_cholesky(neighbours, ratings, prior, 2.0,
                                              noise=np.zeros(prior.num_latent))
        np.testing.assert_allclose(sampled, mean, atol=1e-10)

    def test_sample_covariance_matches_conditional(self, rng):
        """Monte-Carlo check that samples follow N(mean, precision^-1)."""
        k = 3
        prior = GaussianPrior.standard(k)
        neighbours = rng.normal(size=(30, k))
        ratings = rng.normal(size=30)
        mean, chol = conditional_distribution(neighbours, ratings, prior, 2.0)
        covariance = np.linalg.inv(chol @ chol.T)
        samples = np.array([
            sample_item_serial_cholesky(neighbours, ratings, prior, 2.0, rng=rng)
            for _ in range(4000)
        ])
        np.testing.assert_allclose(samples.mean(axis=0), mean, atol=0.05)
        np.testing.assert_allclose(np.cov(samples.T), covariance, atol=0.05)

    def test_empty_neighbours_sample_from_prior(self):
        prior = GaussianPrior(mean=np.array([2.0, -1.0]), precision=np.eye(2) * 4.0)
        sampled = sample_item_serial_cholesky(np.empty((0, 2)), np.empty(0), prior,
                                              2.0, noise=np.zeros(2))
        np.testing.assert_allclose(sampled, prior.mean)


class TestHybridPolicy:
    def test_paper_threshold_default(self):
        policy = HybridUpdatePolicy()
        assert policy.parallel_threshold == 1000

    def test_method_selection(self):
        policy = HybridUpdatePolicy(parallel_threshold=1000, rank_one_threshold=32)
        assert policy.choose(1) is UpdateMethod.RANK_ONE
        assert policy.choose(31) is UpdateMethod.RANK_ONE
        assert policy.choose(32) is UpdateMethod.SERIAL_CHOLESKY
        assert policy.choose(999) is UpdateMethod.SERIAL_CHOLESKY
        assert policy.choose(1000) is UpdateMethod.PARALLEL_CHOLESKY
        assert policy.choose(100_000) is UpdateMethod.PARALLEL_CHOLESKY

    def test_subtask_count(self):
        policy = HybridUpdatePolicy(parallel_threshold=1000, block_grain=500)
        assert policy.n_subtasks(100) == 1
        assert policy.n_subtasks(1000) == 2
        assert policy.n_subtasks(5000) == 10

    def test_invalid_thresholds(self):
        with pytest.raises(ValidationError):
            HybridUpdatePolicy(rank_one_threshold=2000, parallel_threshold=1000)
        with pytest.raises(Exception):
            HybridUpdatePolicy(parallel_threshold=0)


class TestSampleItemDispatch:
    def test_forced_method_used(self, item_problem):
        neighbours, ratings, prior = item_problem
        noise = np.zeros(prior.num_latent)
        forced = sample_item(neighbours, ratings, prior, 2.0, noise=noise,
                             method=UpdateMethod.RANK_ONE)
        reference = sample_item_rank_one(neighbours, ratings, prior, 2.0, noise=noise)
        np.testing.assert_allclose(forced, reference)

    def test_policy_dispatch_matches_all_methods(self, item_problem):
        neighbours, ratings, prior = item_problem
        noise = np.zeros(prior.num_latent)
        auto = sample_item(neighbours, ratings, prior, 2.0, noise=noise,
                           policy=HybridUpdatePolicy(rank_one_threshold=5,
                                                     parallel_threshold=10))
        # 20 neighbours with threshold 10 -> parallel Cholesky
        reference = sample_item_parallel_cholesky(neighbours, ratings, prior, 2.0,
                                                  noise=noise, n_blocks=2)
        np.testing.assert_allclose(auto, reference, atol=1e-9)

    def test_default_policy_used_when_unspecified(self, item_problem):
        neighbours, ratings, prior = item_problem
        result = sample_item(neighbours, ratings, prior, 2.0,
                             noise=np.zeros(prior.num_latent))
        assert result.shape == (prior.num_latent,)

    def test_unknown_method_rejected(self, item_problem):
        neighbours, ratings, prior = item_problem
        with pytest.raises(ValidationError):
            sample_item(neighbours, ratings, prior, 2.0, method="bogus")
