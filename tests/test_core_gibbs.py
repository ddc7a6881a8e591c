"""Unit and convergence tests for the sequential Gibbs sampler and its helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.metrics import coverage_interval, mae, rmse
from repro.core.predict import PosteriorPredictor, predict_ratings
from repro.core.priors import BPMFConfig
from repro.core.state import BPMFState, initialize_state
from repro.core.updates import UpdateMethod
from repro.datasets.synthetic import make_low_rank_dataset
from repro.utils.validation import ValidationError


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_rmse_known_value(self):
        assert rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))

    def test_mae_known_value(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)

    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert mae([1.0], [1.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rmse([], [])

    def test_coverage_interval_full_coverage(self):
        samples = np.random.default_rng(0).normal(size=(500, 20))
        actual = np.zeros(20)
        assert coverage_interval(samples, actual, level=0.99) >= 0.9

    def test_coverage_interval_no_coverage(self):
        samples = np.random.default_rng(0).normal(size=(100, 10))
        actual = np.full(10, 100.0)
        assert coverage_interval(samples, actual) == 0.0

    def test_coverage_validation(self):
        with pytest.raises(ValidationError):
            coverage_interval(np.zeros((5, 3)), np.zeros(4))
        with pytest.raises(ValidationError):
            coverage_interval(np.zeros((5, 3)), np.zeros(3), level=1.5)


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

class TestState:
    def test_initialize_shapes(self, tiny_dataset, tiny_config, rng):
        state = initialize_state(tiny_dataset.split.train, tiny_config, rng)
        assert state.user_factors.shape == (40, tiny_config.num_latent)
        assert state.movie_factors.shape == (30, tiny_config.num_latent)
        assert state.iteration == 0

    def test_initialize_deterministic(self, tiny_dataset, tiny_config):
        a = initialize_state(tiny_dataset.split.train, tiny_config, 3)
        b = initialize_state(tiny_dataset.split.train, tiny_config, 3)
        np.testing.assert_array_equal(a.user_factors, b.user_factors)

    def test_initial_scale_independent_of_k(self, tiny_dataset):
        small_k = initialize_state(tiny_dataset.split.train,
                                   BPMFConfig(num_latent=2), 0)
        large_k = initialize_state(tiny_dataset.split.train,
                                   BPMFConfig(num_latent=32), 0)
        pred_small = small_k.predict(np.arange(10), np.arange(10))
        pred_large = large_k.predict(np.arange(10), np.arange(10))
        assert np.abs(pred_large).mean() < 10 * max(np.abs(pred_small).mean(), 0.1)

    def test_predict_shape_and_values(self, rng):
        state = BPMFState(
            user_factors=np.array([[1.0, 0.0], [0.0, 2.0]]),
            movie_factors=np.array([[3.0, 1.0], [1.0, 1.0]]),
            user_prior=None, movie_prior=None)
        predictions = state.predict([0, 1], [0, 1])
        np.testing.assert_allclose(predictions, [3.0, 2.0])

    def test_copy_is_independent(self, tiny_dataset, tiny_config, rng):
        state = initialize_state(tiny_dataset.split.train, tiny_config, rng)
        clone = state.copy()
        clone.user_factors[0, 0] = 99.0
        assert state.user_factors[0, 0] != 99.0


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------

class TestPosteriorPredictor:
    def test_running_mean(self, tiny_dataset, tiny_config):
        train = tiny_dataset.split.train
        state_a = initialize_state(train, tiny_config, 1)
        state_b = initialize_state(train, tiny_config, 2)
        users, movies, _ = tiny_dataset.split.test_triplets()
        predictor = PosteriorPredictor(users, movies)
        pred_a = predictor.accumulate(state_a)
        pred_b = predictor.accumulate(state_b)
        np.testing.assert_allclose(predictor.mean_prediction(),
                                   (pred_a + pred_b) / 2)
        assert predictor.n_samples == 2

    def test_mean_before_accumulate_raises(self):
        predictor = PosteriorPredictor(np.array([0]), np.array([0]))
        with pytest.raises(ValidationError):
            predictor.mean_prediction()

    def test_sample_matrix_requires_flag(self, tiny_dataset, tiny_config):
        users, movies, _ = tiny_dataset.split.test_triplets()
        predictor = PosteriorPredictor(users, movies, keep_samples=False)
        with pytest.raises(ValidationError):
            predictor.sample_matrix()

    def test_sample_matrix_shape(self, tiny_dataset, tiny_config):
        train = tiny_dataset.split.train
        users, movies, _ = tiny_dataset.split.test_triplets()
        predictor = PosteriorPredictor(users, movies, keep_samples=True)
        for seed in range(3):
            predictor.accumulate(initialize_state(train, tiny_config, seed))
        assert predictor.sample_matrix().shape == (3, users.shape[0])

    def test_misaligned_indices_rejected(self):
        with pytest.raises(ValidationError):
            PosteriorPredictor(np.array([0, 1]), np.array([0]))

    def test_predict_ratings_clipping(self, tiny_dataset, tiny_config):
        state = initialize_state(tiny_dataset.split.train, tiny_config, 0)
        state.user_factors *= 100
        predictions = predict_ratings(state, np.arange(5), np.arange(5),
                                      clip=(0.5, 5.0))
        assert predictions.min() >= 0.5 and predictions.max() <= 5.0
        with pytest.raises(ValidationError):
            predict_ratings(state, [0], [0], clip=(5.0, 0.5))

    def test_predict_ratings_validates_index_ranges(self, tiny_dataset,
                                                    tiny_config):
        """Out-of-range indices raise ValidationError, not raw IndexError."""
        state = initialize_state(tiny_dataset.split.train, tiny_config, 0)
        with pytest.raises(ValidationError, match="outside"):
            predict_ratings(state, [state.n_users], [0])
        with pytest.raises(ValidationError, match="outside"):
            predict_ratings(state, [0], [state.n_movies])
        # Negative indices must not silently wrap around.
        with pytest.raises(ValidationError, match="outside"):
            predict_ratings(state, [-1], [0])
        with pytest.raises(ValidationError):
            predict_ratings(state, [0, 1], [0])  # misaligned

    def test_predictor_validates_indices(self, tiny_dataset, tiny_config):
        state = initialize_state(tiny_dataset.split.train, tiny_config, 0)
        with pytest.raises(ValidationError, match="negative"):
            PosteriorPredictor(np.array([-1]), np.array([0]))
        predictor = PosteriorPredictor(np.array([state.n_users]), np.array([0]))
        with pytest.raises(ValidationError, match="outside"):
            predictor.accumulate(state)

    def test_predictor_restore_round_trip(self, tiny_dataset, tiny_config):
        users, movies, _ = tiny_dataset.split.test_triplets()
        state = initialize_state(tiny_dataset.split.train, tiny_config, 1)
        source = PosteriorPredictor(users, movies)
        source.accumulate(state)
        clone = PosteriorPredictor(users, movies)
        clone.restore(source.prediction_sum, source.n_samples)
        np.testing.assert_array_equal(clone.mean_prediction(),
                                      source.mean_prediction())
        with pytest.raises(ValidationError):
            clone.restore(np.zeros(3), 1)  # wrong shape
        with pytest.raises(ValidationError):
            clone.restore(source.prediction_sum, -1)


# ---------------------------------------------------------------------------
# the Gibbs sampler
# ---------------------------------------------------------------------------

class TestGibbsSampler:
    def test_result_traces_have_expected_lengths(self, tiny_dataset, tiny_config):
        result = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                               tiny_dataset.split, seed=0)
        assert len(result.rmse_burn_in) == tiny_config.burn_in
        assert len(result.rmse_per_sample) == tiny_config.n_samples
        assert len(result.rmse_running_mean) == tiny_config.n_samples
        assert result.items_updated == tiny_config.total_iterations * (40 + 30)
        assert result.state.iteration == tiny_config.total_iterations

    def test_deterministic_given_seed(self, tiny_dataset, tiny_config):
        a = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                          tiny_dataset.split, seed=11)
        b = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                          tiny_dataset.split, seed=11)
        np.testing.assert_array_equal(a.state.user_factors, b.state.user_factors)
        assert a.final_rmse == b.final_rmse

    def test_different_seeds_differ(self, tiny_dataset, tiny_config):
        a = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                          tiny_dataset.split, seed=1)
        b = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                          tiny_dataset.split, seed=2)
        assert not np.allclose(a.state.user_factors, b.state.user_factors)

    def test_rmse_improves_over_burn_in_start(self, small_dataset):
        config = BPMFConfig(num_latent=5, burn_in=6, n_samples=10, alpha=4.0)
        result = GibbsSampler(config).run(small_dataset.split.train,
                                          small_dataset.split, seed=3)
        assert result.final_rmse < result.rmse_burn_in[0]

    def test_recovers_low_rank_signal(self, small_dataset):
        """Posterior-mean RMSE should approach the generating noise level."""
        config = BPMFConfig(num_latent=5, burn_in=8, n_samples=15, alpha=8.0)
        result = GibbsSampler(config).run(small_dataset.split.train,
                                          small_dataset.split, seed=5)
        noise_std = small_dataset.config.noise_std
        assert result.final_rmse < 2.5 * noise_std

    def test_forced_update_methods_agree(self, tiny_dataset, tiny_config):
        """Forcing either Cholesky kernel must not change the sampled chain:
        they share one square root of the conditional covariance.  The
        rank-one kernel draws through another root (the kernel tests pin
        its mean and covariance), so its chain is a different draw, and
        the one the batched engine samples under the same forcing.

        Run on the reference engine: only there does ``update_method``
        select the literal kernel.
        """
        def run(method, engine="reference"):
            return GibbsSampler(tiny_config, SamplerOptions(
                engine=engine, update_method=method)).run(
                tiny_dataset.split.train, tiny_dataset.split, seed=4)

        np.testing.assert_allclose(
            run(UpdateMethod.PARALLEL_CHOLESKY).state.user_factors,
            run(UpdateMethod.SERIAL_CHOLESKY).state.user_factors, atol=1e-6)
        np.testing.assert_allclose(
            run(UpdateMethod.RANK_ONE).state.user_factors,
            run(UpdateMethod.RANK_ONE, "batched").state.user_factors,
            atol=1e-6)

    def test_without_split_uses_training_points(self, tiny_dataset, tiny_config):
        result = GibbsSampler(tiny_config).run(tiny_dataset.split.train, None, seed=0)
        assert result.predictions.shape[0] == tiny_dataset.split.train.nnz

    def test_callback_invoked_every_iteration(self, tiny_dataset, tiny_config):
        seen = []
        options = SamplerOptions(callback=lambda state, it: seen.append(it))
        GibbsSampler(tiny_config, options).run(tiny_dataset.split.train,
                                               tiny_dataset.split, seed=0)
        assert seen == list(range(tiny_config.total_iterations))

    def test_keep_sample_predictions(self, tiny_dataset, tiny_config):
        options = SamplerOptions(keep_sample_predictions=True)
        result = GibbsSampler(tiny_config, options).run(
            tiny_dataset.split.train, tiny_dataset.split, seed=0)
        assert result.sample_predictions.shape == (
            tiny_config.n_samples, tiny_dataset.split.n_test)

    def test_posterior_intervals_reasonably_calibrated(self, small_dataset):
        config = BPMFConfig(num_latent=5, burn_in=8, n_samples=20, alpha=8.0)
        options = SamplerOptions(keep_sample_predictions=True)
        result = GibbsSampler(config, options).run(small_dataset.split.train,
                                                   small_dataset.split, seed=2)
        coverage = coverage_interval(result.sample_predictions,
                                     small_dataset.split.test_values, level=0.9)
        # Sample-mean intervals ignore observation noise, so coverage is below
        # nominal; it must still be far from degenerate.
        assert coverage > 0.2

    def test_mismatched_state_rejected(self, tiny_dataset, small_dataset, tiny_config):
        state = initialize_state(small_dataset.split.train, tiny_config, 0)
        with pytest.raises(ValidationError):
            GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                          tiny_dataset.split, seed=0, state=state)

    def test_warm_start_from_state(self, tiny_dataset, tiny_config):
        rng = np.random.default_rng(0)
        state = initialize_state(tiny_dataset.split.train, tiny_config, rng)
        result = GibbsSampler(tiny_config).run(tiny_dataset.split.train,
                                               tiny_dataset.split, seed=rng,
                                               state=state)
        assert result.state is state
        assert state.iteration == tiny_config.total_iterations

    def test_final_rmse_without_samples_raises(self, tiny_dataset):
        from repro.core.gibbs import BPMFResult
        result = BPMFResult(config=BPMFConfig(), state=None, rmse_per_sample=[],
                            rmse_running_mean=[], rmse_burn_in=[],
                            predictions=np.zeros(1))
        with pytest.raises(ValidationError):
            _ = result.final_rmse
