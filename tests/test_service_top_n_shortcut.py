"""``PredictionService.top_n`` with nothing excluded ranks the cached
score vector directly; the replies must equal the general path (every
item a candidate, scores gathered through the candidate index) bit for
bit, exact ties included."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.core.recommend import select_top_n
from repro.serving.service import PredictionService

N_USERS, N_ITEMS, K = 12, 40, 3


def _general_path(service, user, n):
    scores = service._user_scores(user)
    candidates = np.arange(service.n_items, dtype=np.int64)
    gathered = scores[candidates]
    order = select_top_n(gathered, n)
    return candidates[order].copy(), gathered[order].copy()


@pytest.mark.parametrize("cycle", [None, 4])
def test_unexcluded_top_n_equals_the_general_path(cycle):
    snapshot = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=3)
    if cycle is not None:
        # Exact ties everywhere: the item rows repeat every ``cycle``
        # items, and so does every user's score vector.
        movies = snapshot.state.movie_factors
        movies[:] = movies[np.arange(N_ITEMS) % cycle]
    service = PredictionService(snapshot)
    # Exact score ties: items 5 and 9 repeat items 3 and 4.
    service._item_factors[5] = service._item_factors[3]
    service._item_factors[9] = service._item_factors[4]
    folded = service.fold_in(np.array([1, 2]), np.array([4.0, 2.5]))
    for user in (0, 7, folded):
        for n in (1, 6, N_ITEMS, N_ITEMS + 5):
            for _ in range(2):  # a cache miss, then a hit
                served = service.top_n(user, n=n)
                items, scores = _general_path(service, user, n)
                assert served.items.dtype == np.int64
                assert served.items.tolist() == items.tolist()
                assert served.scores.tobytes() == scores.tobytes()
                assert served.scores.flags.writeable
