"""Fold-in correctness: the one row path equals the closed-form posterior,
and a row depends only on the snapshot and the rating sequence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.core.priors import GaussianPrior
from repro.core.updates import conditional_distribution
from repro.serving.cluster import ShardedScorer
from repro.serving.foldin import FoldInState
from repro.serving.service import PredictionService
from repro.utils.validation import ValidationError


@pytest.fixture
def setting(rng):
    item_factors = rng.normal(size=(30, 5))
    prior = GaussianPrior(mean=rng.normal(size=5),
                          precision=np.eye(5) * 2.0)
    return item_factors, prior


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(50, 37, 4, seed=99)


def _fold(item_factors, prior, items, values, alpha=4.0):
    state = FoldInState(prior, alpha)
    return state.update(item_factors[items], items, values)


class TestFoldInMean:
    def test_matches_closed_form_posterior_mean(self, rng, setting):
        item_factors, prior = setting
        items = np.array([2, 5, 11, 20])
        values = rng.normal(size=4)
        folded = _fold(item_factors, prior, items, values)
        mean, _ = conditional_distribution(item_factors[items], values,
                                           prior, 4.0)
        np.testing.assert_allclose(folded, mean, rtol=1e-9, atol=1e-12)

    def test_zero_rating_user_gets_prior_mean(self, setting):
        item_factors, prior = setting
        folded = _fold(item_factors, prior, np.empty(0, dtype=np.int64),
                       np.empty(0))
        np.testing.assert_allclose(folded, prior.mean, rtol=1e-9, atol=1e-12)


#: One rating history and three ways of delivering it.
HISTORY_ITEMS = np.array([0, 12, 36, 5, 7])
HISTORY_VALUES = np.array([4.0, 2.0, 5.0, 1.5, 3.0])
SPLITS = {"one call": [5], "two calls": [3, 2],
          "one per rating": [1, 1, 1, 1, 1]}


def _deliver(gateway, sizes):
    """Fold the history in with its first chunk, add the rest."""
    bounds = np.cumsum([0] + sizes)
    chunks = [(HISTORY_ITEMS[a:b], HISTORY_VALUES[a:b])
              for a, b in zip(bounds[:-1], bounds[1:])]
    user = gateway.fold_in(*chunks[0])
    for items, values in chunks[1:]:
        gateway.add_ratings(user, items, values)
    return gateway.state().user_factors[user].tobytes()


def test_a_row_does_not_depend_on_how_the_history_was_split(snapshot):
    """``[a, b, c]`` in one call, ``[a, b]`` then ``[c]``, and one rating
    per call give byte-identical rows, on the service and the sharded
    gateway alike."""
    rows = {name: _deliver(PredictionService(snapshot), sizes)
            for name, sizes in SPLITS.items()}
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        rows.update({f"sharded, {name}": _deliver(scorer, sizes)
                     for name, sizes in SPLITS.items()})
    assert len(set(rows.values())) == 1, sorted(rows)


class TestValidation:
    def test_item_out_of_range(self, snapshot):
        service = PredictionService(snapshot)
        for item in (37, -1):
            with pytest.raises(ValidationError, match="item index outside"):
                service.fold_in(np.array([item]), np.array([1.0]))
        assert service.n_users == service.n_train_users

    def test_ragged_mismatch(self, snapshot):
        service = PredictionService(snapshot)
        with pytest.raises(ValidationError, match="align"):
            service.fold_in(np.array([1, 2]), np.array([1.0]))
        with pytest.raises(ValidationError, match="align"):
            service.fold_in(np.array([1]), np.array([]))
        assert service.n_users == service.n_train_users

    def test_k_mismatch(self, rng):
        state = FoldInState(GaussianPrior.standard(4), 4.0)
        with pytest.raises(ValidationError, match="item_rows must be"):
            state.update(rng.normal(size=(1, 5)), np.array([0]),
                         np.array([1.0]))
        assert state.items.size == 0

    def test_bad_alpha(self, setting):
        _, prior = setting
        with pytest.raises(ValidationError):
            FoldInState(prior, 0.0)
