#!/usr/bin/env python3
"""Quickstart: train BPMF on a synthetic rating matrix and evaluate RMSE.

Generates a small low-rank dataset with known ground truth, runs the
sequential Gibbs sampler, and compares the posterior-mean predictions
against the held-out test ratings and the ALS/SGD baselines.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import BPMFConfig, GibbsSampler, SamplerOptions, make_low_rank_dataset
from repro.baselines import run_als, run_sgd
from repro.utils.tables import Table


def main() -> None:
    # 1. A ground-truth low-rank dataset: 300 users x 200 movies, 6 latent
    #    dimensions, ~9k observed ratings, 20% held out for testing.
    data = make_low_rank_dataset(n_users=300, n_movies=200, rank=6,
                                 density=0.15, noise_std=0.3, factor_std=1.5,
                                 seed=42)
    train, split = data.split.train, data.split
    print(f"dataset: {train.n_users} users x {train.n_movies} movies, "
          f"{train.nnz} training ratings, {split.n_test} test ratings")

    # 2. BPMF: no regularisation parameter to tune — the Normal-Wishart
    #    hyperpriors are resampled from the data every Gibbs sweep.
    config = BPMFConfig(num_latent=6, alpha=8.0, burn_in=10, n_samples=30)
    sampler = GibbsSampler(config)
    result = sampler.run(train, split, seed=0)
    print(f"\nBPMF finished {config.total_iterations} Gibbs sweeps "
          f"({result.items_updated} item updates)")
    print(f"  RMSE of the first burn-in sample : {result.rmse_burn_in[0]:.4f}")
    print(f"  RMSE of the posterior mean       : {result.final_rmse:.4f}")
    print(f"  generating noise level           : {data.config.noise_std:.4f}")

    # 3. Baselines on exactly the same split (both need tuned hyperparameters).
    als = run_als(train, split, num_latent=6, n_iterations=20,
                  regularization=0.05, seed=0)
    sgd = run_sgd(train, split, num_latent=6, n_epochs=40,
                  learning_rate=0.05, regularization=0.02, seed=0)

    table = Table(["model", "test RMSE"], title="\nModel comparison")
    table.add_row("BPMF (posterior mean)", result.final_rmse)
    table.add_row("ALS (lambda = 0.05)", als.final_rmse)
    table.add_row("SGD (biased MF)", sgd.final_rmse)
    table.add_row("constant global mean",
                  float(np.sqrt(np.mean((split.test_values
                                         - train.mean_rating()) ** 2))))
    print(table.render())

    # 4. Posterior uncertainty: per-sample predictions give credible intervals,
    #    one of the practical advantages of the Bayesian treatment.
    options = SamplerOptions(keep_sample_predictions=True)
    short = GibbsSampler(BPMFConfig(num_latent=6, alpha=8.0, burn_in=5,
                                    n_samples=15), options)
    with_samples = short.run(train, split, seed=1)
    spread = with_samples.sample_predictions.std(axis=0)
    print(f"\nposterior predictive spread: median {np.median(spread):.3f}, "
          f"90th percentile {np.percentile(spread, 90):.3f}")


if __name__ == "__main__":
    main()
