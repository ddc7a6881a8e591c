"""Calibrated cost models for the item-update kernels.

Two models live here:

* :class:`UpdateCostModel` — predicts the time to update one item with a
  given :class:`~repro.core.updates.UpdateMethod` as a function of its
  rating count and the latent dimension.  The functional forms follow the
  kernels' complexity:

  - rank-one update:      ``t = a + b · n``          (one O(K²) update per rating)
  - serial Cholesky:      ``t = a + c · n + d``      (one O(nK²) Gram + O(K³) factorise)
  - parallel Cholesky:    ``t = a_par + (c · n)/w + d``  (Gram split over ``w`` workers)

  Coefficients can be *calibrated* against the real numpy kernels with
  :func:`calibrate_cost_model`; :data:`DEFAULT_COST_MODEL` ships with
  coefficients measured on the development machine so simulations are
  deterministic and fast by default.

* :class:`WorkloadModel` — the paper's load-balancing model (Section IV-B):
  *"we approximate the workload per user/movie with fixed cost, plus a cost
  per movie rating"*.  It is used by the distributed partitioner and the
  schedulers to estimate task durations without running kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.priors import GaussianPrior
from repro.core.updates import (
    UpdateMethod,
    sample_item_parallel_cholesky,
    sample_item_rank_one,
    sample_item_serial_cholesky,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import time_call
from repro.utils.validation import check_positive

__all__ = [
    "WorkloadModel",
    "UpdateCostModel",
    "calibrate_cost_model",
    "DEFAULT_COST_MODEL",
]


@dataclass(frozen=True)
class WorkloadModel:
    """Fixed-plus-per-rating workload estimate for one item update.

    This is the model the paper derives from Figure 2 and feeds into the
    data distribution: ``work(item) = fixed_cost + rating_cost * n_ratings``.
    Units are arbitrary (relative work), which is all balancing needs.
    """

    fixed_cost: float = 1.0
    rating_cost: float = 0.02

    def __post_init__(self):
        check_positive("fixed_cost", self.fixed_cost)
        check_positive("rating_cost", self.rating_cost)

    def cost(self, n_ratings) -> np.ndarray | float:
        """Relative work for an item (scalar) or items (array) with given degree."""
        return self.fixed_cost + self.rating_cost * np.asarray(n_ratings, dtype=float)

    def total_cost(self, degrees: Iterable[int]) -> float:
        degrees = np.asarray(list(degrees) if not isinstance(degrees, np.ndarray)
                             else degrees, dtype=float)
        return float(np.sum(self.fixed_cost + self.rating_cost * degrees))


@dataclass(frozen=True)
class UpdateCostModel:
    """Per-method kernel time model (seconds) for one item update.

    Parameters
    ----------
    k_ref:
        Latent dimension the coefficients were calibrated at.  Costs scale
        with ``(K / k_ref)^2`` for the per-rating terms and the whole
        rank-one kernel, and ``(K / k_ref)^3`` for the factorisation term,
        following the kernels' complexity.
    rank_one_fixed, rank_one_per_rating:
        Coefficients of the rank-one update kernel.
    chol_fixed, chol_per_rating, chol_factorize:
        Coefficients of the (serial) Gram + Cholesky kernel.
    parallel_overhead:
        Extra fixed cost of the parallel Cholesky (task spawning, reduction
        of the partial Gram matrices).
    """

    k_ref: int = 32
    rank_one_fixed: float = 2.0e-5
    rank_one_per_rating: float = 3.0e-6
    chol_fixed: float = 1.5e-5
    chol_per_rating: float = 1.5e-6
    chol_factorize: float = 1.0e-4
    parallel_overhead: float = 1.1e-3

    def _scale(self, num_latent: int) -> tuple[float, float]:
        ratio = num_latent / self.k_ref
        return ratio**2, ratio**3

    def cost(self, n_ratings, method: UpdateMethod, num_latent: int | None = None,
             workers: int = 1) -> np.ndarray | float:
        """Predicted seconds to update item(s) with ``n_ratings`` ratings.

        ``workers`` only affects :attr:`UpdateMethod.PARALLEL_CHOLESKY`: the
        per-rating Gram work is divided across workers while the
        factorisation and reduction stay serial (Amdahl behaviour).
        """
        check_positive("workers", workers)
        num_latent = num_latent or self.k_ref
        sq, cb = self._scale(num_latent)
        n = np.asarray(n_ratings, dtype=float)
        if method is UpdateMethod.RANK_ONE:
            # Data space: even the fixed part is a K x K back-substitution.
            return (self.rank_one_fixed + self.rank_one_per_rating * n) * sq
        if method is UpdateMethod.SERIAL_CHOLESKY:
            return (self.chol_fixed + self.chol_per_rating * sq * n
                    + self.chol_factorize * cb)
        if method is UpdateMethod.PARALLEL_CHOLESKY:
            return (self.chol_fixed + self.parallel_overhead
                    + self.chol_per_rating * sq * n / workers
                    + self.chol_factorize * cb)
        raise ValueError(f"unknown update method {method!r}")

    def best_method(self, n_ratings: int, num_latent: int | None = None,
                    workers: int = 1) -> UpdateMethod:
        """The cheapest method for an item under this cost model."""
        costs = {m: float(self.cost(n_ratings, m, num_latent, workers))
                 for m in UpdateMethod}
        return min(costs, key=costs.get)

    def workload_model(self, num_latent: int | None = None) -> WorkloadModel:
        """Collapse to the paper's fixed+per-rating workload model.

        Uses the serial-Cholesky coefficients (the dominant method for the
        bulk of items), normalised so the fixed cost is 1.0.
        """
        num_latent = num_latent or self.k_ref
        sq, cb = self._scale(num_latent)
        fixed = self.chol_fixed + self.chol_factorize * cb
        per_rating = self.chol_per_rating * sq
        return WorkloadModel(fixed_cost=1.0, rating_cost=per_rating / fixed)


#: Default coefficients model an *optimised compiled kernel* (the paper's
#: Eigen/C++ implementation) from operation counts: the rank-one update has
#: no O(K^3) factorisation but a higher per-rating constant, the serial
#: Cholesky pays the factorisation once, and the parallel Cholesky adds a
#: task-spawn/reduction overhead that only pays off near the paper's
#: 1000-rating threshold.  Use :func:`calibrate_cost_model` instead to fit
#: the coefficients to the *measured* per-item numpy kernels of this
#: package (their crossovers sit at much lower rating counts because the
#: data-space rank-one kernel factors a ``d x d`` matrix per item).
DEFAULT_COST_MODEL = UpdateCostModel()


def calibrate_cost_model(
    num_latent: int = 16,
    degrees: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048),
    repeats: int = 3,
    workers_for_parallel: int = 4,
    seed: SeedLike = 0,
) -> UpdateCostModel:
    """Fit :class:`UpdateCostModel` coefficients from real kernel timings.

    For every degree in ``degrees`` the three kernels are run on synthetic
    neighbour matrices and timed; coefficients are then obtained by
    least-squares against the model's functional forms.  The parallel
    Cholesky is timed in its chunked (single-worker) form and its measured
    extra fixed cost over the serial kernel becomes ``parallel_overhead``.
    """
    check_positive("num_latent", num_latent)
    rng = as_generator(seed)
    prior = GaussianPrior.standard(num_latent)
    alpha = 2.0

    times: Dict[UpdateMethod, list[tuple[int, float]]] = {m: [] for m in UpdateMethod}
    for degree in degrees:
        neighbours = rng.normal(size=(degree, num_latent))
        ratings = rng.normal(size=degree)
        noise = rng.standard_normal(num_latent)
        # Rank-one gets prohibitively slow for huge degrees; cap its inputs.
        if degree <= 512:
            t, _ = time_call(sample_item_rank_one, neighbours, ratings, prior,
                             alpha, rng=rng, noise=noise, repeats=repeats)
            times[UpdateMethod.RANK_ONE].append((degree, t))
        t, _ = time_call(sample_item_serial_cholesky, neighbours, ratings, prior,
                         alpha, rng=rng, noise=noise, repeats=repeats)
        times[UpdateMethod.SERIAL_CHOLESKY].append((degree, t))
        t, _ = time_call(sample_item_parallel_cholesky, neighbours, ratings, prior,
                         alpha, rng=rng, noise=noise, repeats=repeats,
                         n_blocks=workers_for_parallel)
        times[UpdateMethod.PARALLEL_CHOLESKY].append((degree, t))

    def fit_affine(samples: list[tuple[int, float]]) -> tuple[float, float]:
        ns = np.array([s[0] for s in samples], dtype=float)
        ts = np.array([s[1] for s in samples], dtype=float)
        design = np.stack([np.ones_like(ns), ns], axis=1)
        coeff, *_ = np.linalg.lstsq(design, ts, rcond=None)
        return float(max(coeff[0], 1e-9)), float(max(coeff[1], 1e-12))

    r1_fixed, r1_slope = fit_affine(times[UpdateMethod.RANK_ONE])
    chol_fixed_total, chol_slope = fit_affine(times[UpdateMethod.SERIAL_CHOLESKY])
    par_fixed_total, _par_slope = fit_affine(times[UpdateMethod.PARALLEL_CHOLESKY])

    # Split the serial fixed cost into setup vs. factorisation: attribute the
    # K^3-ish share to the factorisation term (one third is a good empirical
    # split for numpy at small K; exactness is irrelevant to the figures).
    chol_factorize = chol_fixed_total / 3.0
    chol_fixed = chol_fixed_total - chol_factorize
    parallel_overhead = max(par_fixed_total - chol_fixed_total, 1e-9)

    return UpdateCostModel(
        k_ref=num_latent,
        rank_one_fixed=r1_fixed,
        rank_one_per_rating=r1_slope,
        chol_fixed=chol_fixed,
        chol_per_rating=chol_slope,
        chol_factorize=chol_factorize,
        parallel_overhead=parallel_overhead,
    )
