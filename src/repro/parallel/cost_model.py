"""Kernel cost model for the item updates (Figures 2-5).

:class:`UpdateCostModel` predicts the time to update one item with a
given :class:`~repro.core.updates.UpdateMethod` as a function of its
rating count and the latent dimension.  The functional forms follow the
kernels' complexity:

- rank-one update:      ``t = a + b · n``          (one O(K²) update per rating)
- serial Cholesky:      ``t = a + c · n + d``      (one O(nK²) Gram + O(K³) factorise)
- parallel Cholesky:    ``t = a_par + (c · n)/w + d``  (Gram split over ``w`` workers)

There is one calibration: :data:`DEFAULT_COST_MODEL`, whose coefficients
model an optimised compiled kernel, so every figure is deterministic.
The paper's fixed-plus-per-rating balance model is
:class:`repro.distributed.partition.WorkloadModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.updates import UpdateMethod
from repro.utils.validation import check_positive

__all__ = ["UpdateCostModel", "DEFAULT_COST_MODEL"]


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


#: Default coefficients model an *optimised compiled kernel* (the paper's
#: Eigen/C++ implementation) from operation counts: the rank-one update has
#: no O(K^3) factorisation but a higher per-rating constant, the serial
#: Cholesky pays the factorisation once, and the parallel Cholesky adds a
#: task-spawn/reduction overhead that only pays off near the paper's
#: 1000-rating threshold.  Figure 2 prints these predictions beside the
#: measured per-item numpy kernels.
DEFAULT_COST_MODEL = UpdateCostModel()
