"""PredictionService tests: parity with the in-memory paths, caching,
one snapshot per service and cold-start fold-in serving."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler, SamplerOptions
from repro.core.priors import BPMFConfig
from repro.core.recommend import recommend_for_user
from repro.core.state import BPMFState
from repro.datasets.synthetic import SyntheticConfig, make_low_rank_dataset
from repro.core.checkpoint import (
    CheckpointConfig,
    load_snapshot,
    save_snapshot,
    snapshot_from_result,
)
from repro.serving.service import PredictionService
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def data():
    return make_low_rank_dataset(SyntheticConfig(
        n_users=50, n_movies=35, rank=3, density=0.3, noise_std=0.25,
        test_fraction=0.2, seed=31))


@pytest.fixture(scope="module")
def snapshot_path(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "model.npz"
    config = BPMFConfig(num_latent=5, alpha=4.0, burn_in=2, n_samples=4)
    options = SamplerOptions(checkpoint=CheckpointConfig(path=path))
    GibbsSampler(config, options).run(data.split.train, data.split, seed=3)
    return path


@pytest.fixture(scope="module")
def snapshot(snapshot_path):
    return load_snapshot(snapshot_path)


class TestPredict:
    def test_batch_matches_state_predict(self, data, snapshot):
        service = PredictionService(snapshot)
        users, movies, _ = data.split.test_triplets()
        np.testing.assert_allclose(
            service.predict_batch(users, movies),
            snapshot.posterior_mean_state().predict(users, movies),
            rtol=1e-12, atol=1e-12)

    def test_mean_mode_uses_posterior_mean_factors(self, snapshot):
        service = PredictionService(snapshot)
        mean_state = snapshot.posterior_mean_state()
        np.testing.assert_allclose(
            service.predict(3, 7),
            float(mean_state.predict(np.array([3]), np.array([7]))[0]),
            rtol=1e-12)

    def test_offset_applied(self, snapshot):
        assert snapshot.offset == 0.0
        plain = PredictionService(snapshot)
        shifted = PredictionService(dataclasses.replace(snapshot, offset=3.0))
        users, items = np.arange(5), np.arange(5)
        assert shifted.predict_batch(users, items).tobytes() == \
            (plain.predict_batch(users, items) + 3.0).tobytes()
        assert shifted.top_n(2, n=6).scores.tobytes() == \
            (plain.top_n(2, n=6).scores + 3.0).tobytes()

    def test_scalar_predict(self, snapshot):
        service = PredictionService(snapshot)
        assert isinstance(service.predict(0, 0), float)

    def test_out_of_range_rejected(self, snapshot):
        service = PredictionService(snapshot)
        with pytest.raises(ValidationError):
            service.predict(service.n_users, 0)
        with pytest.raises(ValidationError):
            service.predict(-1, 0)
        with pytest.raises(ValidationError):
            service.predict(0, service.n_items)
        with pytest.raises(ValidationError):
            service.predict_batch(np.array([0, 1]), np.array([0]))

    def test_loads_from_path(self, snapshot_path):
        assert PredictionService(snapshot_path).n_items == 35


class TestTopN:
    def test_matches_recommend_for_user(self, data, snapshot):
        """Acceptance criterion: snapshot top_n == in-memory recommendation."""
        service = PredictionService(snapshot, train=data.split.train)
        mean_state = snapshot.posterior_mean_state()
        for user in (0, 7, 23):
            served = service.top_n(user, n=8)
            reference = recommend_for_user(mean_state, user, n=8,
                                           exclude=data.split.train)
            assert served.items.tolist() == reference.items.tolist()
            np.testing.assert_allclose(served.scores, reference.scores,
                                       rtol=1e-9, atol=1e-12)

    def test_without_exclusion_ranks_all_items(self, snapshot):
        service = PredictionService(snapshot)
        served = service.top_n(2, n=8, exclude_seen=False)
        reference = recommend_for_user(snapshot.posterior_mean_state(), 2,
                                       n=8)
        assert served.items.tolist() == reference.items.tolist()

    def test_batch_api(self, data, snapshot):
        service = PredictionService(snapshot, train=data.split.train)
        ranked = service.top_n_batch([0, 1, 2], n=4)
        assert set(ranked) == {0, 1, 2}
        assert all(len(rec) == 4 for rec in ranked.values())

    def test_lru_cache_hits_and_bounded(self, snapshot):
        service = PredictionService(snapshot, cache_size=2)
        service.top_n(0, n=3)
        service.top_n(0, n=5)  # same user: cached score vector
        assert service.cache_hits == 1 and service.cache_misses == 1
        service.top_n(1, n=3)
        service.top_n(2, n=3)  # evicts user 0 (capacity 2)
        service.top_n(0, n=3)
        assert service.cache_misses == 4
        assert len(service._score_cache) <= 2

    def test_cached_scores_are_immutable(self, snapshot):
        service = PredictionService(snapshot)
        scores = service._user_scores(0)
        with pytest.raises(ValueError):
            scores[0] = 99.0

    def test_add_ratings_invalidates_the_users_cached_scores(self, snapshot):
        service = PredictionService(snapshot)
        cold = service.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
        stale = service.top_n(cold, n=5)
        assert service.cache_invalidations == 0
        service.add_ratings(cold, np.array([2]), np.array([5.0]))
        assert service.cache_invalidations == 1
        fresh = service.top_n(cold, n=5)
        # The row changed, so the recomputed scores must differ and the
        # lookup must register a miss, not serve the stale vector.
        assert fresh.scores.tobytes() != stale.scores.tobytes()
        assert service.cache_misses == 2 and service.cache_hits == 0
        stats = service.stats()
        assert stats["cache_invalidations"] == 1
        assert stats["n_folded_in"] == 1
        assert stats["cache_entries"] == 1

    def test_add_ratings_without_cache_entry_counts_nothing(self, snapshot):
        service = PredictionService(snapshot)
        cold = service.fold_in(np.array([0]), np.array([4.0]))
        service.add_ratings(cold, np.array([1]), np.array([2.0]))
        assert service.cache_invalidations == 0


class TestFoldInServing:
    def test_fold_in_user_served_like_a_trained_user(self, data, snapshot):
        """Acceptance criterion: top_n parity holds for a fold-in user."""
        service = PredictionService(snapshot, train=data.split.train)
        mean_state = snapshot.posterior_mean_state()
        items = np.array([1, 4, 9, 16])
        values = np.array([4.0, 3.5, 2.0, 5.0])
        cold = service.fold_in(items, values)
        assert cold == snapshot.state.n_users
        served = service.top_n(cold, n=6)

        # Reference: append the folded vector to the in-memory state and
        # run the ordinary recommendation path on it.
        augmented = BPMFState(
            user_factors=np.vstack([mean_state.user_factors,
                                    service._user_factors[cold]]),
            movie_factors=mean_state.movie_factors,
            user_prior=snapshot.state.user_prior,
            movie_prior=snapshot.state.movie_prior)
        reference = recommend_for_user(augmented, cold, n=6)
        assert served.items.tolist() == reference.items.tolist()
        np.testing.assert_allclose(served.scores, reference.scores,
                                   rtol=1e-9, atol=1e-12)

    def test_many_fold_ins_grow_the_buffer_correctly(self, snapshot, rng):
        """Sequential registrations survive buffer doubling intact."""
        service = PredictionService(snapshot)
        base = snapshot.state.n_users
        expected = {}
        for i in range(70):  # more than the initial 50-row capacity
            items = np.array([i % service.n_items])
            values = np.array([float(i % 5)])
            user = service.fold_in(items, values)
            assert user == base + i
            expected[user] = service._user_factors[user].copy()
        for user, row in expected.items():
            np.testing.assert_array_equal(service._user_factors[user], row)
        # Original training rows were never disturbed by the growth.
        np.testing.assert_array_equal(
            service._user_factors[:base],
            snapshot.posterior_mean_state().user_factors)

    def test_fold_in_batch_ids_and_predictions(self, snapshot):
        service = PredictionService(snapshot)
        ids = [service.fold_in(np.array([0, 1]), np.array([4.0, 2.0])),
               service.fold_in(np.array([2]), np.array([3.0]))]
        assert ids == [service.n_train_users, service.n_train_users + 1]
        assert np.isfinite(service.predict(ids[1], 5))

    def test_fold_in_removes_offset(self, data, tmp_path):
        config = BPMFConfig(num_latent=5, alpha=4.0, burn_in=1, n_samples=2)
        result = GibbsSampler(config).run(data.split.train, data.split, seed=3)
        path = tmp_path / "off.npz"
        save_snapshot(snapshot_from_result(result, offset=3.0), path)
        service = PredictionService(path)
        # Rating 3.0 == the offset, so the centred value is 0: folding in on
        # it must equal folding in the centred rating with no offset.
        cold = service.fold_in(np.array([2]), np.array([3.0]))
        plain = PredictionService(snapshot_from_result(result, offset=0.0))
        cold_plain = plain.fold_in(np.array([2]), np.array([0.0]))
        np.testing.assert_allclose(service._user_factors[cold],
                                   plain._user_factors[cold_plain],
                                   rtol=1e-12, atol=1e-12)


class TestMultiSnapshot:
    def test_a_list_of_snapshots_is_refused(self, snapshot):
        """The service serves one snapshot's posterior mean; pooling
        chains is not its job."""
        for many in ([snapshot, snapshot], [snapshot]):
            with pytest.raises(ValidationError, match="one snapshot"):
                PredictionService(many)

    def test_empty_snapshot_list_rejected(self):
        with pytest.raises(ValidationError):
            PredictionService([])

    def test_train_shape_checked(self, snapshot, data):
        wrong = make_low_rank_dataset(SyntheticConfig(
            n_users=10, n_movies=8, rank=2, density=0.5, seed=2))
        with pytest.raises(ValidationError, match="train"):
            PredictionService(snapshot, train=wrong.split.train)
