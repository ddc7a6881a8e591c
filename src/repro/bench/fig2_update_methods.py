"""Figure 2 — time to update one item versus its number of ratings.

The paper measures the per-item update time of the three kernels
(sequential rank-one update, sequential Cholesky, parallel Cholesky) as a
function of the item's rating count, and uses the crossovers to justify the
hybrid policy (parallel Cholesky for items with >= ~1000 ratings).

Two curves are produced for every method:

* ``measured`` — wall-clock timings of this package's per-item numpy
  kernels (honest, but the data-space rank-one kernel factors a ``d x d``
  matrix, so its crossover sits at much lower rating counts than the
  paper's C++/Eigen kernels);
* ``modelled`` — the compiled-kernel cost model
  (:data:`repro.parallel.cost_model.DEFAULT_COST_MODEL`), whose crossovers
  reproduce the paper's shape, including the ~1000-rating threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.priors import GaussianPrior
from repro.core.updates import (
    UpdateMethod,
    sample_item_parallel_cholesky,
    sample_item_rank_one,
    sample_item_serial_cholesky,
)
from repro.parallel.cost_model import DEFAULT_COST_MODEL, UpdateCostModel
from repro.utils.rng import SeedLike, as_generator
from repro.utils.tables import Table
from repro.utils.timing import time_call

__all__ = ["Fig2Result", "run_fig2", "DEFAULT_DEGREES"]

#: Rating counts swept on the x-axis (log-spaced like the paper's 1..100 000).
DEFAULT_DEGREES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass
class Fig2Result:
    """Per-method measured and modelled update times (seconds per update)."""

    degrees: List[int]
    measured: Dict[str, List[float]]
    modelled: Dict[str, List[float]]
    num_latent: int
    parallel_workers: int

    def crossover(self, source: str, method_a: str, method_b: str) -> int | None:
        """Smallest degree at which ``method_b`` becomes cheaper than ``method_a``."""
        series = self.measured if source == "measured" else self.modelled
        for degree, a, b in zip(self.degrees, series[method_a], series[method_b]):
            if not np.isnan(a) and not np.isnan(b) and b < a:
                return degree
        return None

    def to_table(self, source: str = "modelled") -> Table:
        series = self.measured if source == "measured" else self.modelled
        table = Table(
            ["#ratings"] + [f"{name} (s)" for name in series],
            title=f"Figure 2 — time to update one item ({source})",
        )
        for row, degree in enumerate(self.degrees):
            table.add_row(degree, *[series[name][row] for name in series])
        return table


def run_fig2(
    degrees: Sequence[int] = DEFAULT_DEGREES,
    num_latent: int = 32,
    parallel_workers: int = 4,
    repeats: int = 3,
    max_rank_one_degree: int = 2048,
    cost_model: UpdateCostModel | None = None,
    seed: SeedLike = 0,
) -> Fig2Result:
    """Regenerate Figure 2's data.

    ``max_rank_one_degree`` caps the measured rank-one curve (its
    ``d x d`` factor grows as ``d^3``, prohibitive beyond a few thousand
    ratings); the modelled curve covers the full range.
    """
    rng = as_generator(seed)
    cost_model = cost_model or DEFAULT_COST_MODEL
    prior = GaussianPrior.standard(num_latent)
    alpha = 2.0

    names = {
        UpdateMethod.RANK_ONE: "rank-one update",
        UpdateMethod.SERIAL_CHOLESKY: "serial Cholesky",
        UpdateMethod.PARALLEL_CHOLESKY: "parallel Cholesky",
    }
    measured: Dict[str, List[float]] = {name: [] for name in names.values()}
    modelled: Dict[str, List[float]] = {name: [] for name in names.values()}

    for degree in degrees:
        neighbours = rng.normal(size=(degree, num_latent))
        ratings = rng.normal(size=degree)
        noise = rng.standard_normal(num_latent)

        if degree <= max_rank_one_degree:
            t, _ = time_call(sample_item_rank_one, neighbours, ratings, prior,
                             alpha, rng=rng, noise=noise, repeats=repeats)
        else:
            t = float("nan")
        measured[names[UpdateMethod.RANK_ONE]].append(t)

        t, _ = time_call(sample_item_serial_cholesky, neighbours, ratings, prior,
                         alpha, rng=rng, noise=noise, repeats=repeats)
        measured[names[UpdateMethod.SERIAL_CHOLESKY]].append(t)

        t, _ = time_call(sample_item_parallel_cholesky, neighbours, ratings, prior,
                         alpha, rng=rng, noise=noise, repeats=repeats,
                         n_blocks=parallel_workers)
        measured[names[UpdateMethod.PARALLEL_CHOLESKY]].append(t)

        for method, name in names.items():
            modelled[name].append(float(cost_model.cost(
                degree, method, num_latent,
                workers=parallel_workers if method is UpdateMethod.PARALLEL_CHOLESKY else 1)))

    return Fig2Result(
        degrees=list(degrees),
        measured=measured,
        modelled=modelled,
        num_latent=num_latent,
        parallel_workers=parallel_workers,
    )
