#!/usr/bin/env python3
"""Drug-discovery scenario: multicore BPMF on a ChEMBL-like activity matrix.

This mirrors the paper's motivating application (ExCAPE / ChEMBL compound
activity prediction): compounds act as "users", protein targets as
"movies", and the pIC50-like activities are the ratings.  The script

1. generates a ChEMBL-like bioactivity matrix (heavy-tailed target
   popularity, ~2 measured activities per compound);
2. trains BPMF on two threads, centring the activities on the training
   mean as is standard for zero-mean factor priors;
3. reports test RMSE and shows how the hybrid update policy classifies the
   items (which is what makes load balancing necessary);
4. reproduces the Figure 3 thread sweep on the same workload.

Run with:  python examples/chembl_drug_discovery.py
"""

from __future__ import annotations

import numpy as np

from repro import BPMFConfig, GibbsSampler, HybridUpdatePolicy, SamplerOptions
from repro.core.updates import UpdateMethod
from repro.datasets import make_chembl_like
from repro.parallel import multicore_thread_sweep
from repro.sparse.csr import RatingMatrix
from repro.sparse.split import RatingSplit
from repro.utils.tables import Table


def centre_split(split: RatingSplit) -> tuple[RatingSplit, float]:
    """Subtract the training mean from train and test values."""
    mean = split.train.mean_rating()
    users, movies, values = split.train.triplets()
    train = RatingMatrix.from_arrays(split.train.n_users, split.train.n_movies,
                                     users, movies, values - mean)
    return RatingSplit(train=train, test_users=split.test_users,
                       test_movies=split.test_movies,
                       test_values=split.test_values - mean), mean


def main() -> None:
    # Scaled-down ChEMBL v20 IC50 subset: same heavy-tailed structure as the
    # 483 500 x 5 775 matrix in the paper, ~1/150th the size.
    data = make_chembl_like(scale=150.0, seed=7, noise_std=0.4, value_spread=1.8)
    ratings = data.ratings
    print(f"ChEMBL-like matrix: {ratings.n_users} compounds x "
          f"{ratings.n_movies} targets, {ratings.nnz} activities "
          f"(density {100 * ratings.density:.2f}%)")

    degrees = ratings.movie_degrees()
    print(f"activities per target: median {int(np.median(degrees))}, "
          f"max {int(degrees.max())}  <- the load imbalance the paper addresses")

    # How the paper's hybrid policy classifies the per-item updates at K=16.
    config = BPMFConfig(num_latent=16, alpha=4.0, burn_in=8, n_samples=20)
    policy = HybridUpdatePolicy()
    table = Table(["update kernel", "#targets", "#compounds"],
                  title="\nHybrid update-policy classification")
    compound_degrees = ratings.user_degrees()
    for method in UpdateMethod:
        n_targets = int(sum(1 for d in degrees
                            if policy.choose(int(d), config.num_latent) is method))
        n_compounds = int(sum(1 for d in compound_degrees
                              if policy.choose(int(d), config.num_latent) is method))
        table.add_row(method.value, n_targets, n_compounds)
    print(table.render())

    # Train on two threads on the centred activities.
    split, mean = centre_split(data.split)
    sampler = GibbsSampler(config, SamplerOptions(n_threads=2))
    result = sampler.run(split.train, split, seed=0)
    baseline = float(np.sqrt(np.mean(split.test_values ** 2)))
    print(f"\ntest RMSE (pIC50 units): {result.final_rmse:.3f} "
          f"(predict-the-mean baseline: {baseline:.3f})")

    # Recommend new targets for one well-measured compound.
    compound = int(np.argmax(compound_degrees))
    measured, _ = ratings.user_ratings(compound)
    candidates = np.setdiff1d(np.arange(ratings.n_movies), measured)
    scores = result.state.predict(np.full(candidates.shape[0], compound), candidates) + mean
    top = candidates[np.argsort(-scores)[:5]]
    print(f"\ntop-5 predicted targets for compound {compound} "
          f"(already measured against {measured.shape[0]} targets):")
    for target in top:
        predicted = scores[np.nonzero(candidates == target)[0][0]]
        print(f"  target {int(target):4d}: predicted activity {predicted:.2f}")

    # Figure 3 on this workload: throughput vs simulated thread count.
    sweep = multicore_thread_sweep(ratings, num_latent=32,
                                   thread_counts=(1, 2, 4, 8, 16))
    print()
    print(sweep.to_table().render())
    print("TBB speed-up over 1 thread:",
          ", ".join(f"{value:.1f}x" for value in sweep.speedup("TBB")))


if __name__ == "__main__":
    main()
