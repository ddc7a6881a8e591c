"""A synthetic posterior snapshot for serving tests and benchmarks.

This import path is frozen: ``perfbench/workloads/serve.py`` and the
serving / network / WAL test modules import :func:`make_bench_snapshot`
from here.
"""

from __future__ import annotations

import numpy as np

from repro.core.checkpoint import Snapshot, _CONFIG_FIELDS
from repro.core.priors import BPMFConfig, GaussianPrior
from repro.core.state import BPMFState

__all__ = ["make_bench_snapshot"]


def make_bench_snapshot(n_users: int, n_items: int, num_latent: int,
                        seed: int = 0) -> Snapshot:
    """A synthetic posterior snapshot: random factors, default priors.

    Serving throughput depends only on the factor shapes, so there is no
    need to burn minutes of Gibbs sampling to measure it.
    """
    rng = np.random.default_rng(seed)
    config = BPMFConfig(num_latent=num_latent)
    state = BPMFState(
        user_factors=rng.standard_normal((n_users, num_latent)),
        movie_factors=rng.standard_normal((n_items, num_latent)),
        user_prior=GaussianPrior.standard(num_latent),
        movie_prior=GaussianPrior.standard(num_latent),
        iteration=1,
    )
    return Snapshot(
        state=state,
        config={key: float(getattr(config, key)) for key in _CONFIG_FIELDS},
        offset=3.5,
    )
