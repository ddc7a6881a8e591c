"""Unit tests for the dataset generators and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.chembl import CHEMBL_PAPER_SHAPE, ChemblLikeConfig, make_chembl_like
from repro.datasets.degree_models import (
    lognormal_degrees,
    power_law_degrees,
    scale_degrees_to_nnz,
)
from repro.datasets.movielens import (
    MOVIELENS_PAPER_SHAPE,
    MovieLensLikeConfig,
    make_movielens_like,
)
from repro.datasets.registry import (
    DatasetSpec,
    available_datasets,
    load_dataset,
    register_dataset,
)
from repro.datasets.scaling_workload import ScalingWorkloadConfig, make_scaling_workload
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.utils.validation import ValidationError


class TestDegreeModels:
    def test_power_law_bounds(self):
        degrees = power_law_degrees(500, exponent=2.0, min_degree=2,
                                    max_degree=50, seed=0)
        assert degrees.min() >= 2
        assert degrees.max() <= 50
        assert degrees.shape == (500,)

    def test_power_law_is_heavy_tailed(self):
        degrees = power_law_degrees(5000, exponent=1.5, min_degree=1,
                                    max_degree=10_000, seed=1)
        # Mean far above median is the signature of a heavy tail.
        assert degrees.mean() > 2.0 * np.median(degrees)

    def test_power_law_deterministic(self):
        a = power_law_degrees(100, seed=3)
        b = power_law_degrees(100, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_power_law_exponent_one_uses_log_uniform(self):
        degrees = power_law_degrees(200, exponent=1.0, min_degree=1,
                                    max_degree=100, seed=0)
        assert degrees.min() >= 1 and degrees.max() <= 100

    def test_power_law_invalid_args(self):
        with pytest.raises(ValidationError):
            power_law_degrees(0)
        with pytest.raises(ValueError):
            power_law_degrees(10, min_degree=10, max_degree=5)

    def test_lognormal_bounds(self):
        degrees = lognormal_degrees(300, mean_log=2.0, sigma_log=0.8,
                                    min_degree=1, max_degree=40, seed=0)
        assert degrees.min() >= 1 and degrees.max() <= 40

    def test_scale_degrees_exact_total(self):
        degrees = power_law_degrees(200, seed=2)
        scaled = scale_degrees_to_nnz(degrees, 5000, min_degree=1)
        assert scaled.sum() == 5000

    def test_scale_degrees_preserves_order(self):
        degrees = np.array([100, 10, 1, 50])
        scaled = scale_degrees_to_nnz(degrees, 1000, min_degree=1)
        assert scaled[0] >= scaled[3] >= scaled[1] >= scaled[2]

    def test_scale_degrees_respects_max(self):
        degrees = np.array([1000, 1, 1])
        scaled = scale_degrees_to_nnz(degrees, 60, min_degree=1, max_degree=50)
        assert scaled.max() <= 50

    def test_scale_degrees_empty(self):
        assert scale_degrees_to_nnz(np.array([]), 10).shape == (0,)

    def test_scale_degrees_reaches_a_target_one_item_must_absorb(self):
        """[1001] + [1] * 999 is the only answer: the one item that can
        move has to take 997 units."""
        degrees = np.array([10**6] + [1] * 999)
        scaled = scale_degrees_to_nnz(degrees, 2000, min_degree=1)
        assert scaled.sum() == 2000
        assert scaled[0] == 1001 and (scaled[1:] == 1).all()

    def test_scale_degrees_infeasible_target_returns_the_clamped_vector(self):
        degrees = np.array([5, 3, 2, 1])
        scaled = scale_degrees_to_nnz(degrees, 2, min_degree=1)
        assert scaled.tolist() == [1, 1, 1, 1]
        capped = scale_degrees_to_nnz(degrees, 100, min_degree=1,
                                      max_degree=10)
        assert capped.tolist() == [10, 10, 10, 10]


class TestSyntheticDataset:
    def test_shapes_and_density(self):
        data = make_low_rank_dataset(n_users=50, n_movies=30, rank=4,
                                     density=0.2, seed=0)
        assert data.ratings.shape == (50, 30)
        assert data.ratings.nnz == pytest.approx(0.2 * 50 * 30, abs=2)
        assert data.true_user_factors.shape == (50, 4)
        assert data.true_movie_factors.shape == (30, 4)

    def test_observed_values_match_ground_truth_plus_noise(self):
        data = make_low_rank_dataset(n_users=40, n_movies=25, rank=3,
                                     density=0.3, noise_std=0.0, seed=1)
        users, movies, values = data.ratings.triplets()
        expected = np.einsum("ij,ij->i", data.true_user_factors[users],
                             data.true_movie_factors[movies])
        np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_global_bias_applied(self):
        data = make_low_rank_dataset(n_users=30, n_movies=20, density=0.3,
                                     noise_std=0.0, global_bias=3.0, seed=1)
        assert data.ratings.mean_rating() == pytest.approx(3.0, abs=0.3)

    def test_deterministic(self):
        a = make_low_rank_dataset(n_users=20, n_movies=15, seed=9)
        b = make_low_rank_dataset(n_users=20, n_movies=15, seed=9)
        np.testing.assert_array_equal(a.ratings.triplets()[2], b.ratings.triplets()[2])

    def test_config_overrides(self):
        base = SyntheticConfig(n_users=20, n_movies=10)
        data = make_low_rank_dataset(base, density=0.5)
        assert data.config.n_users == 20
        assert data.config.density == 0.5

    def test_split_included(self):
        data = make_low_rank_dataset(n_users=60, n_movies=40, density=0.2,
                                     test_fraction=0.25, seed=0)
        assert data.split.n_test > 0
        assert data.split.train.nnz + data.split.n_test == data.ratings.nnz

    def test_invalid_config(self):
        with pytest.raises(Exception):
            SyntheticConfig(density=1.5)
        with pytest.raises(Exception):
            SyntheticConfig(noise_std=-1.0)

    def test_true_full_matrix(self):
        data = make_low_rank_dataset(n_users=10, n_movies=8, rank=2, seed=0)
        assert data.true_full_matrix.shape == (10, 8)


class TestChemblLike:
    def test_scaled_shape(self, chembl_tiny):
        config = chembl_tiny.config
        assert config.n_compounds == int(CHEMBL_PAPER_SHAPE["n_compounds"] / config.scale)
        assert chembl_tiny.ratings.shape == (config.n_compounds, config.n_targets)

    def test_activity_count_close_to_requested(self, chembl_tiny):
        requested = chembl_tiny.config.n_activities
        assert chembl_tiny.ratings.nnz == pytest.approx(requested, rel=0.05)

    def test_target_degrees_heavy_tailed(self, chembl_tiny):
        degrees = chembl_tiny.ratings.movie_degrees()
        assert degrees.max() > 5 * max(np.median(degrees), 1)

    def test_values_look_like_pic50(self, chembl_tiny):
        values = chembl_tiny.ratings.triplets()[2]
        assert 3.0 < values.mean() < 10.0

    def test_deterministic(self):
        a = make_chembl_like(scale=500, seed=4)
        b = make_chembl_like(scale=500, seed=4)
        np.testing.assert_array_equal(a.ratings.triplets()[1], b.ratings.triplets()[1])

    def test_no_duplicate_cells(self, chembl_tiny):
        users, movies, _ = chembl_tiny.ratings.triplets()
        keys = users * chembl_tiny.ratings.n_movies + movies
        assert np.unique(keys).shape[0] == keys.shape[0]


class TestMovieLensLike:
    def test_scaled_shape(self):
        data = make_movielens_like(scale=1500, seed=5)
        config = data.config
        assert config.n_users == int(MOVIELENS_PAPER_SHAPE["n_users"] / config.scale)
        assert data.ratings.shape == (config.n_users, config.n_movies)

    def test_star_values_quantised(self):
        data = make_movielens_like(scale=1500, seed=5, discrete_stars=True)
        values = data.ratings.triplets()[2]
        assert values.min() >= 0.5 and values.max() <= 5.0
        np.testing.assert_allclose(values * 2, np.round(values * 2))

    def test_continuous_values_when_disabled(self):
        data = make_movielens_like(scale=1500, seed=5, discrete_stars=False)
        values = data.ratings.triplets()[2]
        assert not np.allclose(values * 2, np.round(values * 2))

    def test_split_present(self):
        data = make_movielens_like(scale=1500, seed=5)
        assert data.split.n_test > 0


class TestScalingWorkload:
    def test_shape_and_positive_degrees(self):
        workload = make_scaling_workload(n_users=2000, n_movies=400,
                                         n_ratings=20_000, seed=0)
        assert workload.shape == (2000, 400)
        # Duplicates shrink the realised count below the request, but it
        # should stay within the same order of magnitude.
        assert 5_000 < workload.nnz <= 20_000
        assert (workload.user_degrees() >= 0).all()

    def test_community_bias_increases_locality(self):
        biased = make_scaling_workload(n_users=1500, n_movies=300, n_ratings=15_000,
                                       community_bias=0.9, n_communities=10, seed=1)
        uniform = make_scaling_workload(n_users=1500, n_movies=300, n_ratings=15_000,
                                        community_bias=0.0, n_communities=10, seed=1)
        from repro.sparse.reorder import bandwidth
        assert bandwidth(biased) < bandwidth(uniform)

    def test_deterministic(self):
        a = make_scaling_workload(n_users=500, n_movies=100, n_ratings=5000, seed=3)
        b = make_scaling_workload(n_users=500, n_movies=100, n_ratings=5000, seed=3)
        assert a.nnz == b.nnz

    def test_invalid_config(self):
        with pytest.raises(Exception):
            ScalingWorkloadConfig(community_bias=1.5)


class TestRegistry:
    def test_available_datasets_nonempty_and_sorted(self):
        names = available_datasets()
        assert "synthetic-small" in names
        assert list(names) == sorted(names)

    def test_load_dataset_returns_ratings_and_split(self):
        ratings, split = load_dataset("synthetic-tiny")
        assert ratings.nnz > 0
        assert split.train.nnz + split.n_test == ratings.nnz

    def test_load_unknown_dataset(self):
        with pytest.raises(ValidationError):
            load_dataset("does-not-exist")

    def test_register_custom_dataset(self):
        spec = DatasetSpec("custom-test-ds", "for tests",
                           lambda: load_dataset("synthetic-tiny"))
        register_dataset(spec)
        try:
            ratings, _ = load_dataset("custom-test-ds")
            assert ratings.nnz > 0
            with pytest.raises(ValueError):
                register_dataset(spec)
            register_dataset(spec, overwrite=True)
        finally:
            # Keep the global registry clean for other tests.
            from repro.datasets import registry as registry_module
            registry_module._REGISTRY.pop("custom-test-ds", None)
