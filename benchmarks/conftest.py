"""Shared fixtures for the benchmark harness.

Workloads are session-scoped so the figure benchmarks that share a dataset
(Figures 4 and 5, the ablations) generate it only once.  Sizes are chosen
so the full ``pytest benchmarks/ --benchmark-only`` run finishes in a few
minutes on one core; every driver accepts larger sizes for a
closer-to-paper-scale run (see each ``repro.bench`` driver's signature).
"""

from __future__ import annotations

import pytest

from repro.bench.fig4_strong_scaling import bluegene_like_config
from repro.datasets import make_chembl_like, make_scaling_workload


@pytest.fixture(scope="session")
def chembl_workload():
    """ChEMBL-like workload for the multicore experiments (Figure 3)."""
    return make_chembl_like(scale=50.0, seed=11).ratings


@pytest.fixture(scope="session")
def movielens_scaling_workload():
    """MovieLens-shaped structural workload for the scaling experiments.

    Full ml-20m user/movie counts with a reduced rating count so that the
    model sweep stays fast; the nnz-per-item ratio is about a quarter of
    the real dataset, which shifts where communication starts to dominate
    but preserves the rack-boundary behaviour.
    """
    return make_scaling_workload(n_users=138_493 // 2, n_movies=27_278 // 2,
                                 n_ratings=3_000_000, seed=13)


@pytest.fixture(scope="session")
def scaling_config():
    """BlueGene/Q-like machine model shared by Figures 4 and 5."""
    return bluegene_like_config(num_latent=64)
