#!/usr/bin/env python3
"""Movie-recommendation scenario: distributed BPMF on a MovieLens-like dataset.

Demonstrates the distributed sampler end to end on a MovieLens-shaped
star-rating matrix: the workload-aware partitioning of users and movies
over simulated MPI ranks, the item exchange driven by the sparsity pattern,
and the fact that the distributed run reproduces the sequential sampler's
accuracy (the paper's Section V-B claim).  Finishes with top-N movie
recommendations for a few users.

Run with:  python examples/movielens_recommender.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BPMFConfig,
    DistributedGibbsSampler,
    DistributedOptions,
    GibbsSampler,
)
from repro.datasets import make_movielens_like
from repro.utils.tables import Table


def main() -> None:
    # MovieLens-like star ratings (~1/200th of ml-20m).
    data = make_movielens_like(scale=200.0, seed=3)
    ratings = data.ratings
    print(f"MovieLens-like matrix: {ratings.n_users} users x "
          f"{ratings.n_movies} movies, {ratings.nnz} ratings "
          f"(mean {ratings.mean_rating():.2f} stars)")

    # Centre on the global mean (standard for zero-mean factor priors).
    mean = data.split.train.mean_rating()
    users, movies, values = data.split.train.triplets()
    from repro.sparse.csr import RatingMatrix
    from repro.sparse.split import RatingSplit
    train = RatingMatrix.from_arrays(ratings.n_users, ratings.n_movies,
                                     users, movies, values - mean)
    split = RatingSplit(train=train, test_users=data.split.test_users,
                        test_movies=data.split.test_movies,
                        test_values=data.split.test_values - mean)

    config = BPMFConfig(num_latent=12, alpha=2.0, burn_in=8, n_samples=20)

    # Sequential reference and 4-rank distributed run with the same seed.
    sequential = GibbsSampler(config).run(train, split, seed=0)
    distributed, info = DistributedGibbsSampler(
        config,
        DistributedOptions(n_ranks=4, hyper_mode="gather"),
    ).run(train, split, seed=0)

    table = Table(["implementation", "test RMSE (stars)"],
                  title="\nAccuracy parity (same seed)")
    table.add_row("sequential Gibbs sampler", sequential.final_rmse)
    table.add_row("distributed, 4 simulated ranks", distributed.final_rmse)
    print(table.render())
    assert np.isclose(sequential.final_rmse, distributed.final_rmse)

    # What the distributed execution actually did.
    partition = info.partition
    sizes = partition.rank_sizes()
    print("\ndata distribution over ranks (users, movies):",
          ", ".join(f"rank {r}: {u}/{m}" for r, (u, m) in enumerate(sizes)))
    print(f"items exchanged per iteration : {info.items_exchanged_per_iteration}")
    sweeps = config.total_iterations
    print(f"messages posted (whole run)   : {info.n_messages}")
    print(f"messages per sweep            : {info.n_messages / sweeps:.1f}")
    print(f"data volume per sweep         : {info.bytes_sent / sweeps / 1e3:.1f} kB")

    # Top-5 recommendations for the three most active users.
    state = distributed.state
    most_active = np.argsort(-ratings.user_degrees())[:3]
    for user in most_active:
        seen, _ = ratings.user_ratings(int(user))
        candidates = np.setdiff1d(np.arange(ratings.n_movies), seen)
        scores = state.predict(np.full(candidates.shape[0], user), candidates) + mean
        top = candidates[np.argsort(-scores)[:5]]
        stars = np.clip(np.sort(scores)[::-1][:5], 0.5, 5.0)
        print(f"\nuser {int(user)} (rated {seen.shape[0]} movies) — top-5 picks: "
              + ", ".join(f"movie {int(m)} ({s:.1f}*)"
                          for m, s in zip(top, stars)))


if __name__ == "__main__":
    main()
