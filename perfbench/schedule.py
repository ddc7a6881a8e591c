"""Seeded request schedules for ``serve_mixed``.

Each closed-loop client gets its own list of ops drawn from the seed:
reads are ``top_n`` for a user picked by Zipf popularity over a seeded
permutation of the user ids (so the service's LRU score cache, smaller
than the population, sees a real hit share), writes are ``rate`` on the
client's own folded-in user.  The write count per client is exact, not
binomial, so every seed offers the same read/write mix.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

ZIPF_EXPONENT = 1.1
WRITE_SHARE = 0.2

#: ``("top_n", user)`` or ``("rate", item, value)``.
Op = Tuple


def zipf_probabilities(n: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    """Probability of popularity rank ``0..n-1`` under a finite Zipf law."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def make_schedule(seed: int, n_clients: int, ops_per_client: int,
                  n_users: int, n_items: int,
                  write_share: float = WRITE_SHARE) -> List[List[Op]]:
    """One op list per client; identical for identical arguments."""
    rng = np.random.default_rng([int(seed), 0x5E7])
    by_popularity = rng.permutation(n_users)
    probabilities = zipf_probabilities(n_users)
    n_writes = int(round(write_share * ops_per_client))
    schedules: List[List[Op]] = []
    for _ in range(n_clients):
        is_write = np.zeros(ops_per_client, dtype=bool)
        is_write[rng.choice(ops_per_client, size=n_writes,
                            replace=False)] = True
        users = by_popularity[rng.choice(n_users, size=ops_per_client,
                                         p=probabilities)]
        items = rng.integers(0, n_items, size=ops_per_client)
        values = rng.integers(1, 11, size=ops_per_client) / 2.0
        schedules.append([
            ("rate", int(items[i]), float(values[i])) if is_write[i]
            else ("top_n", int(users[i]))
            for i in range(ops_per_client)])
    return schedules
