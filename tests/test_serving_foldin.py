"""Fold-in correctness: the batched path equals the closed-form posterior."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.priors import GaussianPrior
from repro.core.updates import conditional_distribution, sample_item
from repro.serving.foldin import fold_in_posterior, fold_in_user, fold_in_users
from repro.utils.validation import ValidationError


@pytest.fixture
def setting(rng):
    item_factors = rng.normal(size=(30, 5))
    prior = GaussianPrior(mean=rng.normal(size=5),
                          precision=np.eye(5) * 2.0)
    return item_factors, prior


class TestFoldInMean:
    def test_matches_closed_form_posterior_mean(self, rng, setting):
        item_factors, prior = setting
        items = np.array([2, 5, 11, 20])
        values = rng.normal(size=4)
        folded = fold_in_user(item_factors, prior, 4.0, items, values)
        mean, _ = conditional_distribution(item_factors[items], values,
                                           prior, 4.0)
        np.testing.assert_allclose(folded, mean, rtol=1e-9, atol=1e-12)

    def test_batch_matches_per_user(self, rng, setting):
        item_factors, prior = setting
        item_lists = [np.array([0, 3]), np.array([7]),
                      np.array([1, 2, 3, 4, 5])]
        value_lists = [rng.normal(size=len(items)) for items in item_lists]
        stacked = fold_in_users(item_factors, prior, 4.0,
                                item_lists, value_lists)
        for row, (items, values) in enumerate(zip(item_lists, value_lists)):
            single = fold_in_user(item_factors, prior, 4.0, items, values)
            np.testing.assert_allclose(stacked[row], single,
                                       rtol=1e-9, atol=1e-12)

    def test_zero_rating_user_gets_prior_mean(self, setting):
        item_factors, prior = setting
        folded = fold_in_user(item_factors, prior, 4.0,
                              np.empty(0, dtype=np.int64), np.empty(0))
        np.testing.assert_allclose(folded, prior.mean, rtol=1e-9, atol=1e-12)

    def test_empty_batch(self, setting):
        item_factors, prior = setting
        assert fold_in_users(item_factors, prior, 4.0, [], []).shape == (0, 5)

    def test_engine_selection(self, rng, setting):
        """Every engine folds in to identical rows; junk engines rejected."""
        item_factors, prior = setting
        item_lists = [np.array([0, 3]), np.array([7, 8, 9])]
        value_lists = [rng.normal(size=len(items)) for items in item_lists]
        default = fold_in_users(item_factors, prior, 4.0,
                                item_lists, value_lists)
        reference = fold_in_users(item_factors, prior, 4.0,
                                  item_lists, value_lists, engine="reference")
        np.testing.assert_allclose(reference, default, rtol=1e-7, atol=1e-9)
        from repro.core.batch_engine import make_update_engine
        with make_update_engine("shared", n_workers=2) as engine:
            shared = fold_in_users(item_factors, prior, 4.0,
                                   item_lists, value_lists, engine=engine)
        np.testing.assert_array_equal(shared, default)
        with pytest.raises(ValidationError):
            fold_in_users(item_factors, prior, 4.0, item_lists, value_lists,
                          engine=42)
        with pytest.raises(ValidationError):
            fold_in_users(item_factors, prior, 4.0, item_lists, value_lists,
                          engine="no-such-engine")

    def test_shared_engine_by_name_does_not_leak_workers(self, rng, setting):
        """An engine built from a name is closed before returning."""
        import multiprocessing

        item_factors, prior = setting
        item_lists = [np.array([0, 3]), np.array([7, 8, 9])]
        value_lists = [rng.normal(size=len(items)) for items in item_lists]
        default = fold_in_users(item_factors, prior, 4.0,
                                item_lists, value_lists)
        shared = fold_in_users(item_factors, prior, 4.0,
                               item_lists, value_lists, engine="shared")
        np.testing.assert_array_equal(shared, default)
        leftover = [proc for proc in multiprocessing.active_children()
                    if proc.name.startswith("repro-shared-worker")]
        assert leftover == []


class TestFoldInSample:
    def test_noise_draws_the_conditional_sample(self, rng, setting):
        """With real noise the fold-in is the same draw as sample_item."""
        item_factors, prior = setting
        items = np.array([1, 8, 9])
        values = rng.normal(size=3)
        noise = rng.standard_normal(5)
        folded = fold_in_user(item_factors, prior, 4.0, items, values,
                              noise=noise)
        reference = sample_item(item_factors[items], values, prior, 4.0,
                                noise=noise)
        np.testing.assert_allclose(folded, reference, rtol=1e-7, atol=1e-9)


class TestFoldInPosterior:
    def test_mean_and_cholesky(self, rng, setting):
        item_factors, prior = setting
        items = np.array([4, 6])
        values = rng.normal(size=2)
        mean, chol = fold_in_posterior(item_factors, prior, 4.0, items, values)
        expected_precision = prior.precision + 4.0 * (
            item_factors[items].T @ item_factors[items])
        np.testing.assert_allclose(chol @ chol.T, expected_precision,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            expected_precision @ mean,
            prior.precision @ prior.mean + 4.0 * item_factors[items].T @ values,
            rtol=1e-9, atol=1e-12)

    def test_bad_item_index_rejected(self, setting):
        item_factors, prior = setting
        with pytest.raises(ValidationError):
            fold_in_posterior(item_factors, prior, 4.0,
                              np.array([99]), np.array([1.0]))


class TestValidation:
    def test_item_out_of_range(self, setting):
        item_factors, prior = setting
        with pytest.raises(ValidationError, match="fold-in user 0"):
            fold_in_users(item_factors, prior, 4.0,
                          [np.array([30])], [np.array([1.0])])
        with pytest.raises(ValidationError, match="fold-in user 0"):
            fold_in_users(item_factors, prior, 4.0,
                          [np.array([-1])], [np.array([1.0])])

    def test_ragged_mismatch(self, setting):
        item_factors, prior = setting
        with pytest.raises(ValidationError, match="items but"):
            fold_in_users(item_factors, prior, 4.0,
                          [np.array([1, 2])], [np.array([1.0])])
        with pytest.raises(ValidationError, match="align"):
            fold_in_users(item_factors, prior, 4.0, [np.array([1])], [])

    def test_bad_noise_shape(self, setting):
        item_factors, prior = setting
        with pytest.raises(ValidationError, match="noise"):
            fold_in_users(item_factors, prior, 4.0,
                          [np.array([1])], [np.array([1.0])],
                          noise=np.zeros((2, 5)))

    def test_k_mismatch(self, rng):
        prior = GaussianPrior.standard(4)
        with pytest.raises(ValidationError, match="K="):
            fold_in_users(rng.normal(size=(10, 5)), prior, 4.0, [], [])

    def test_bad_alpha(self, setting):
        item_factors, prior = setting
        with pytest.raises(ValidationError):
            fold_in_users(item_factors, prior, 0.0, [], [])
